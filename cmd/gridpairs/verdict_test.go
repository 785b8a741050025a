package main

import (
	"math"
	"testing"
)

func TestQuartiles(t *testing.T) {
	q := quartilesOf([]float64{5, 1, 3, 2, 4})
	if q.Q1 != 2 || q.Median != 3 || q.Q3 != 4 {
		t.Fatalf("quartiles of 1..5 = %+v, want 2, 3, 4", q)
	}
	q = quartilesOf([]float64{1, 2, 3, 4})
	if q.Q1 != 1.75 || q.Median != 2.5 || q.Q3 != 3.25 {
		t.Fatalf("quartiles of 1..4 = %+v, want 1.75, 2.5, 3.25", q)
	}
	if q := quartilesOf(nil); !math.IsNaN(q.Median) {
		t.Fatalf("median of nothing = %v, want NaN", q.Median)
	}
}

func TestSummarizeVerdicts(t *testing.T) {
	higher := metric{Name: "goodput_mbps", Better: "higher", Bound: 0.25}
	lower := metric{Name: "op_p50_ms", Better: "lower", Bound: 0.25}
	ten := func(base float64, step float64) []float64 {
		v := make([]float64, 10)
		for i := range v {
			v[i] = base + step*float64(i)
		}
		return v
	}
	rows := []struct {
		name           string
		m              metric
		parent, change []float64
		won, lost      int
		verdict        string
	}{
		// Ten of ten pairs and medians 130 apart against a parent IQR of 45.
		{"clear gain", higher, ten(450, 10), ten(580, 10), 10, 0, verdictGain},
		// The same numbers read as latencies are a regression past the bound.
		{"lower is better", lower, ten(450, 10), ten(580, 10), 0, 10, verdictRegression},
		{"lower gain", lower, ten(580, 10), ten(450, 10), 10, 0, verdictGain},
		// Eight of ten is not nine tenths, however far apart the medians.
		{"eight of ten", higher,
			[]float64{500, 500, 500, 500, 500, 500, 500, 500, 500, 500},
			[]float64{600, 600, 600, 600, 600, 600, 600, 600, 490, 490}, 8, 2, verdictBetter},
		// Nine of ten, but the medians differ by less than the parent's spread.
		{"inside the spread", higher,
			[]float64{400, 420, 440, 460, 480, 500, 520, 540, 560, 580},
			[]float64{410, 430, 450, 470, 490, 510, 530, 550, 570, 570}, 9, 1, verdictBetter},
		// A tie counts for neither side: nine wins of ten pairs still carries.
		{"tie counts for neither", higher,
			[]float64{500, 501, 502, 503, 504, 505, 506, 507, 508, 509},
			[]float64{600, 601, 602, 603, 604, 605, 606, 607, 608, 509}, 9, 0, verdictGain},
		{"worse but inside the bound", higher, ten(500, 1), ten(450, 1), 0, 10, verdictWithin},
		{"worse beyond the bound", higher, ten(500, 1), ten(370, 1), 0, 10, verdictRegression},
		// The parent's own runs spread wider than the bound and the two sides
		// overlap: neither unchanged nor regressed.
		{"too noisy to tell", higher,
			[]float64{300, 350, 400, 450, 500, 550, 600, 650, 700, 750},
			[]float64{310, 340, 410, 440, 510, 540, 610, 640, 710, 700}, 5, 5, verdictUnresolved},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			s := summarize(r.m, r.parent, r.change)
			if s.Won != r.won || s.Lost != r.lost || s.Pairs != len(r.parent) {
				t.Errorf("won %d lost %d of %d, want %d and %d", s.Won, s.Lost, s.Pairs, r.won, r.lost)
			}
			if s.Verdict != r.verdict {
				t.Errorf("verdict %q, want %q (%v)", s.Verdict, r.verdict, s)
			}
		})
	}
}

func TestParseResult(t *testing.T) {
	out := []byte("building...\n" + `{"correct":true,"attempted":561,"failed":2,"metrics":{"goodput_mbps":{"value":632.5,"unit":"MB/s"}}}` + "\n")
	r, err := parseResult(out)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Correct || r.Attempted != 561 || r.Failed != 2 || r.Metrics["goodput_mbps"].Value != 632.5 {
		t.Fatalf("parsed %+v", r)
	}
	if _, err := parseResult([]byte("no json here\n")); err == nil {
		t.Fatal("a run that printed no result line parsed")
	}
}
