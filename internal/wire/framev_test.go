package wire

import (
	"bufio"
	"bytes"
	"io"
	"testing"
)

func TestWriteFrameVMatchesWriteFrame(t *testing.T) {
	cases := [][][]byte{
		{},
		{[]byte("abc")},
		{[]byte("abc"), []byte("def")},
		{nil, []byte("x"), nil, []byte("yz"), {}},
	}
	for i, parts := range cases {
		var joined []byte
		for _, p := range parts {
			joined = append(joined, p...)
		}
		var want, got bytes.Buffer
		if err := WriteFrame(&want, 7, joined); err != nil {
			t.Fatal(err)
		}
		if err := WriteFrameV(&got, 7, parts...); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Fatalf("case %d: vectored frame differs from joined frame", i)
		}
	}
}

func TestWriteFrameVTooLarge(t *testing.T) {
	half := make([]byte, MaxFrame/2+1)
	if err := WriteFrameV(io.Discard, 1, half, half); err != ErrFrameTooLarge {
		t.Fatalf("got %v, want ErrFrameTooLarge", err)
	}
}

func TestReadFrameIntoReusesBuffer(t *testing.T) {
	var stream bytes.Buffer
	for i := 0; i < 4; i++ {
		WriteFrame(&stream, uint8(i), bytes.Repeat([]byte{byte(i)}, 100))
	}
	var buf []byte
	var first *byte
	for i := 0; i < 4; i++ {
		typ, payload, err := ReadFrameInto(&stream, &buf)
		if err != nil {
			t.Fatal(err)
		}
		if typ != uint8(i) || len(payload) != 100 || payload[0] != byte(i) {
			t.Fatalf("frame %d: typ %d, %d bytes", i, typ, len(payload))
		}
		if i == 0 {
			first = &payload[0]
		} else if &payload[0] != first {
			t.Fatal("payload buffer was reallocated despite sufficient capacity")
		}
	}
}

func TestReadFrameIntoGrows(t *testing.T) {
	var stream bytes.Buffer
	WriteFrame(&stream, 1, make([]byte, 10))
	WriteFrame(&stream, 2, make([]byte, 1000))
	buf := make([]byte, 0, 16)
	if _, p, err := ReadFrameInto(&stream, &buf); err != nil || len(p) != 10 {
		t.Fatalf("small frame: %d bytes, %v", len(p), err)
	}
	if _, p, err := ReadFrameInto(&stream, &buf); err != nil || len(p) != 1000 {
		t.Fatalf("grown frame: %d bytes, %v", len(p), err)
	}
	if cap(buf) < 1000 {
		t.Fatalf("buffer did not grow: cap %d", cap(buf))
	}
}

func TestReadFrameIntoRejectsOversized(t *testing.T) {
	var buf []byte
	in := []byte{0xFF, 0xFF, 0xFF, 0xFF, 1}
	if _, _, err := ReadFrameInto(bytes.NewReader(in), &buf); err != ErrFrameTooLarge {
		t.Fatalf("got %v, want ErrFrameTooLarge", err)
	}
}

// TestFrameLoopAllocs pins the zero-copy claim: a warm
// WriteFrameV+ReadFrameInto loop performs no per-frame allocations.
func TestFrameLoopAllocs(t *testing.T) {
	payload := bytes.Repeat([]byte{0xAB}, 4096)
	hdr := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	var stream bytes.Buffer
	stream.Grow(2 * (len(hdr) + len(payload) + 5))
	buf := make([]byte, 0, len(hdr)+len(payload))
	avg := testing.AllocsPerRun(100, func() {
		stream.Reset()
		if err := WriteFrameV(&stream, 9, hdr, payload); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ReadFrameInto(&stream, &buf); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("warm frame loop allocates %.1f times per frame, want 0", avg)
	}
}

// TestFrameBuffered: only a whole frame already in the read buffer counts;
// a bare or partial header, or a body still on the wire, does not, and the
// peek consumes nothing.
func TestFrameBuffered(t *testing.T) {
	var two bytes.Buffer
	WriteFrame(&two, 3, []byte("first"))
	WriteFrame(&two, 4, nil)
	whole := two.Bytes()
	for cut, want := range map[int]bool{
		0: false, 3: false, 5: false, 9: false, // nothing, part header, header, part body
		10: true, 12: true, len(whole): true, // one frame, +part header, both frames
	} {
		br := bufio.NewReader(bytes.NewReader(whole[:cut]))
		br.Peek(1) // pull what there is into the buffer, as a previous ReadFrame would have
		if got := FrameBuffered(br); got != want {
			t.Errorf("%d of %d bytes buffered: FrameBuffered = %v, want %v", cut, len(whole), got, want)
		}
	}
	br := bufio.NewReader(bytes.NewReader(whole))
	br.Peek(1)
	for _, wantType := range []uint8{3, 4} {
		if !FrameBuffered(br) {
			t.Fatalf("frame %d not reported buffered", wantType)
		}
		if typ, _, err := ReadFrame(br); err != nil || typ != wantType {
			t.Fatalf("ReadFrame after FrameBuffered: type %d err %v, want type %d", typ, err, wantType)
		}
	}
	if FrameBuffered(br) {
		t.Error("drained reader still reports a buffered frame")
	}
}
