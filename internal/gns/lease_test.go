package gns

import (
	"testing"
	"time"

	"griddles/internal/simclock"
)

func TestLeaseRespWireRoundTrip(t *testing.T) {
	m := Mapping{Mode: ModeRemote, RemoteHost: "brecca:6000", RemotePath: "/d/X.DAT", Version: 42}
	l := Lease{TTL: 2500 * time.Millisecond, Term: 9, Shard: 3, Epoch: 42}
	gm, gl, err := decodeLeaseResp(encodeLeaseResp(m, l))
	if err != nil {
		t.Fatal(err)
	}
	if gm != m || gl != l {
		t.Errorf("round trip = %+v / %+v, want %+v / %+v", gm, gl, m, l)
	}
	if _, _, err := decodeLeaseResp(append(encodeLeaseResp(m, l), 1)); err == nil {
		t.Error("trailing byte accepted")
	}
	if _, _, err := decodeLeaseResp([]byte{1, 2}); err == nil {
		t.Error("truncated payload accepted")
	}
}

func TestRedirectWireRoundTrip(t *testing.T) {
	leader, term, err := decodeRedirect(encodeRedirect("gns0:5000", 7))
	if err != nil {
		t.Fatal(err)
	}
	if leader != "gns0:5000" || term != 7 {
		t.Errorf("round trip = %q/%d", leader, term)
	}
	re := &redirectError{leader: "gns0:5000", term: 7}
	if re.Error() == "" {
		t.Error("empty redirect error string")
	}
}

func TestReplWireRoundTrips(t *testing.T) {
	rec := replRecord{
		Term: 3, Leader: "gns0:5000", PrevVersion: 10, Version: 11,
		HasEntry: true, Tombstone: false, Machine: "jagan", Path: "/d/A.DAT",
		M: Mapping{Mode: ModeCopy, RemoteHost: "dione:6000", Version: 11},
	}
	got, err := decodeReplAppend(encodeReplAppend(rec))
	if err != nil {
		t.Fatal(err)
	}
	if got != rec {
		t.Errorf("append round trip = %+v, want %+v", got, rec)
	}

	ack := replAck{OK: true, Term: 3, Version: 11}
	gack, err := decodeReplAck(encodeReplAck(ack))
	if err != nil {
		t.Fatal(err)
	}
	if gack != ack {
		t.Errorf("ack round trip = %+v, want %+v", gack, ack)
	}

	snap := replSnapshot{
		Term: 4, Leader: "gns0r:5000", Version: 20,
		Entries: []Entry{
			{Key: Key{Machine: "jagan", Path: "/d/A.DAT"}, Mapping: Mapping{Mode: ModeRemote, Version: 19}},
			{Key: Key{Machine: "*", Path: "/d/B.DAT"}, Mapping: Mapping{Mode: ModeLocal, Version: 20}},
		},
	}
	gsnap, err := decodeReplSnapshot(encodeReplSnapshot(snap))
	if err != nil {
		t.Fatal(err)
	}
	if gsnap.Term != snap.Term || gsnap.Leader != snap.Leader || gsnap.Version != snap.Version ||
		len(gsnap.Entries) != 2 || gsnap.Entries[1].Key.Path != "/d/B.DAT" {
		t.Errorf("snapshot round trip = %+v, want %+v", gsnap, snap)
	}
	if _, err := decodeReplSnapshot([]byte{0xFF}); err == nil {
		t.Error("truncated snapshot accepted")
	}
}

func TestStoreSnapshotRestoreApplyReplicated(t *testing.T) {
	v := simclock.Real{}
	s := NewStore(v)
	s.Set("jagan", "A.DAT", Mapping{Mode: ModeRemote, RemoteHost: "brecca:6000"})
	s.Set("*", "B.DAT", Mapping{Mode: ModeLocal})
	entries, version := s.Snapshot()
	if len(entries) != 2 || version != s.Version() {
		t.Fatalf("snapshot = %d entries at v%d", len(entries), version)
	}

	r := NewStore(v)
	r.Restore(entries, version)
	if r.Version() != version || len(r.List()) != 2 {
		t.Errorf("restore: v%d, %d entries", r.Version(), len(r.List()))
	}
	if m, ok := r.Lookup("jagan", "A.DAT"); !ok || m.RemoteHost != "brecca:6000" {
		t.Errorf("restored lookup = %+v (%v)", m, ok)
	}

	// Prefix-checked apply: in-order applies land, out-of-order are refused.
	next := Mapping{Mode: ModeCopy, RemoteHost: "dione:6000", Version: version + 1}
	if !r.ApplyReplicated("jagan", "A.DAT", next, false, version, version+1) {
		t.Error("in-order apply refused")
	}
	if r.ApplyReplicated("jagan", "A.DAT", next, false, version, version+2) {
		t.Error("out-of-order apply accepted")
	}
	// Tombstone apply deletes.
	if !r.ApplyReplicated("jagan", "A.DAT", Mapping{}, true, version+1, version+2) {
		t.Error("tombstone apply refused")
	}
	if _, ok := r.Lookup("jagan", "A.DAT"); ok {
		t.Error("tombstone did not delete")
	}
}

func TestStoreIsItsOwnFreshResolver(t *testing.T) {
	s := NewStore(simclock.Real{})
	s.Set("jagan", "A.DAT", Mapping{Mode: ModeRemote, RemoteHost: "brecca:6000"})
	m, err := s.ResolveFresh("jagan", "A.DAT")
	if err != nil || m.Mode != ModeRemote {
		t.Errorf("ResolveFresh = %+v, %v", m, err)
	}
	sm, _ := ParseRing("0=a:1;1=b:1")
	if got := NewRing(sm).Shards(); got != 2 {
		t.Errorf("Shards() = %d, want 2", got)
	}
}
