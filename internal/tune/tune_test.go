package tune

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func sampleKey(i int) Key {
	return Key{
		Collective: "allreduce",
		CommSize:   64,
		Bytes:      1024 << i,
		Count:      128 << i,
		Hop:        "net",
		TopoFP:     "00c0ffee00c0ffee",
		Noise:      `{"seed":1,"congestion":{"net":16}}`,
	}
}

func sampleStore(n int) *Store {
	s := NewStore()
	for i := 0; i < n; i++ {
		s.Put(sampleKey(i), Entry{
			Algorithm: "rabenseifner",
			WinnerPs:  int64(1000 + i),
			RacedPs:   map[string]int64{"recdbl": int64(2000 + i), "rabenseifner": int64(1000 + i)},
		})
	}
	return s
}

// TestRoundTripByteStable: save→load→save reproduces the file byte for
// byte, and the loaded store serves every entry.
func TestRoundTripByteStable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	s := sampleStore(5)
	if err := s.Save(path); err != nil {
		t.Fatalf("save: %v", err)
	}
	first, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if loaded.Len() != 5 {
		t.Fatalf("loaded %d entries, want 5", loaded.Len())
	}
	for i := 0; i < 5; i++ {
		e, ok := loaded.Lookup(sampleKey(i))
		if !ok || e.Algorithm != "rabenseifner" || e.WinnerPs != int64(1000+i) {
			t.Fatalf("entry %d: got %+v ok=%v", i, e, ok)
		}
		if e.RacedPs["recdbl"] != int64(2000+i) {
			t.Fatalf("entry %d raced: %+v", i, e.RacedPs)
		}
	}
	if err := loaded.Save(path); err != nil {
		t.Fatalf("re-save: %v", err)
	}
	second, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatalf("round trip not byte-stable:\n-- first --\n%s\n-- second --\n%s", first, second)
	}
}

// TestLoadMissingFile: first boot is not an error.
func TestLoadMissingFile(t *testing.T) {
	s, err := Load(filepath.Join(t.TempDir(), "nope.jsonl"))
	if err != nil {
		t.Fatalf("missing file must load fresh without error, got %v", err)
	}
	if s.Len() != 0 {
		t.Fatalf("fresh store not empty: %d", s.Len())
	}
}

// TestLoadRejections: every flavor of damage is rejected as a whole
// (ErrRejected) and still yields a usable fresh store.
func TestLoadRejections(t *testing.T) {
	good := func() string {
		b, err := sampleStore(1).Encode()
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}()
	lines := func(s string) []string {
		var out []string
		for _, l := range bytes.Split([]byte(s), []byte("\n")) {
			if len(l) > 0 {
				out = append(out, string(l))
			}
		}
		return out
	}(good)
	if len(lines) != 2 {
		t.Fatalf("sample store rendered %d lines, want 2", len(lines))
	}
	cases := map[string]string{
		"empty file":       "",
		"garbage header":   "not json\n",
		"wrong format":     `{"format":"other","version":1}` + "\n",
		"stale version":    `{"format":"repro-tune","version":99}` + "\n" + lines[1] + "\n",
		"future version":   `{"format":"repro-tune","version":2}` + "\n",
		"unknown field":    lines[0] + "\n" + `{"key":{"collective":"x","comm_size":1,"bytes":0,"hop":"net","topo_fp":"f"},"entry":{"algorithm":"a","winner_ps":1},"extra":1}` + "\n",
		"corrupt line":     lines[0] + "\n{half a record\n",
		"blank body line":  lines[0] + "\n\n" + lines[1] + "\n",
		"duplicate key":    lines[0] + "\n" + lines[1] + "\n" + lines[1] + "\n",
		"negative winner":  lines[0] + "\n" + `{"key":{"collective":"x","comm_size":1,"bytes":0,"hop":"net","topo_fp":"f"},"entry":{"algorithm":"a","winner_ps":-5}}` + "\n",
		"empty collective": lines[0] + "\n" + `{"key":{"collective":"","comm_size":1,"bytes":0,"hop":"net","topo_fp":"f"},"entry":{"algorithm":"a","winner_ps":1}}` + "\n",
		"trailing data":    lines[0] + "{}\n",
	}
	for name, body := range cases {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "store.jsonl")
			if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
			s, err := Load(path)
			if !errors.Is(err, ErrRejected) {
				t.Fatalf("want ErrRejected, got %v", err)
			}
			if s == nil || s.Len() != 0 {
				t.Fatalf("rejected load must still return a fresh store, got %v", s)
			}
			// The fresh store must be fully usable.
			s.Put(sampleKey(0), Entry{Algorithm: "recdbl", WinnerPs: 1})
			if _, ok := s.Lookup(sampleKey(0)); !ok {
				t.Fatal("fresh store after rejection not usable")
			}
		})
	}
}

// TestConcurrentWriters: concurrent Saves to one path never tear the
// file — the temp+rename discipline means the survivor is exactly one
// writer's complete rendering.
func TestConcurrentWriters(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")
	a, b := sampleStore(3), sampleStore(7)
	encA, _ := a.Encode()
	encB, _ := b.Encode()
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(2)
		go func() { defer wg.Done(); _ = a.Save(path) }()
		go func() { defer wg.Done(); _ = b.Save(path) }()
	}
	wg.Wait()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, encA) && !bytes.Equal(got, encB) {
		t.Fatalf("file is neither writer's rendering (torn write?):\n%s", got)
	}
	if _, err := Load(path); err != nil {
		t.Fatalf("file after concurrent writes does not load: %v", err)
	}
	// No temp droppings left behind.
	ents, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.Name() != filepath.Base(path) {
			t.Fatalf("leftover temp file %s", e.Name())
		}
	}
}

// TestSnapshotImmutable: a snapshot keeps serving its generation's
// view while the store learns, and the generation counter moves.
func TestSnapshotImmutable(t *testing.T) {
	s := sampleStore(1)
	snap := s.Snapshot()
	if snap.Generation() != 1 {
		t.Fatalf("generation %d, want 1", snap.Generation())
	}
	k := sampleKey(1)
	s.Put(k, Entry{Algorithm: "recdbl", WinnerPs: 7})
	if _, ok := snap.Lookup(k); ok {
		t.Fatal("snapshot sees a Put made after it was taken")
	}
	if _, ok := s.Lookup(k); !ok {
		t.Fatal("store lost the Put")
	}
	if g := s.Generation(); g != 2 {
		t.Fatalf("generation %d after second Put, want 2", g)
	}
	st := s.Stats()
	if st.Entries != 2 || st.Measured != 2 {
		t.Fatalf("stats %+v", st)
	}
	if st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("snapshot lookups must count on the parent store: %+v", st)
	}
}

// TestEachSorted: Each visits entries in the deterministic Save order.
func TestEachSorted(t *testing.T) {
	s := sampleStore(4)
	var prev *Key
	n := 0
	s.Each(func(k Key, e Entry) {
		n++
		if prev != nil && !prev.less(k) {
			t.Fatalf("Each out of order: %+v before %+v", prev, k)
		}
		kk := k
		prev = &kk
	})
	if n != 4 {
		t.Fatalf("Each visited %d entries, want 4", n)
	}
}

// FuzzTuneStoreLoad: a hostile store file can only produce "rejected,
// started fresh" — never a panic — and anything accepted must
// round-trip deterministically.
func FuzzTuneStoreLoad(f *testing.F) {
	good, err := sampleStore(2).Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte(""))
	f.Add([]byte(`{"format":"repro-tune","version":1}` + "\n"))
	f.Add([]byte(`{"format":"repro-tune","version":2}` + "\n"))
	f.Add([]byte("{\"format\":\"repro-tune\",\"version\":1}\n{\"key\":{},\"entry\":{}}\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "store.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip()
		}
		s, err := Load(path)
		if s == nil {
			t.Fatal("Load returned nil store")
		}
		if err != nil {
			if !errors.Is(err, ErrRejected) {
				t.Fatalf("load error not ErrRejected: %v", err)
			}
			return
		}
		// Accepted: the canonical rendering must be a fixed point.
		out := filepath.Join(dir, "out.jsonl")
		if err := s.Save(out); err != nil {
			t.Fatalf("save of accepted store: %v", err)
		}
		again, err := Load(out)
		if err != nil {
			t.Fatalf("reload of saved store: %v", err)
		}
		b1, _ := s.Encode()
		b2, _ := again.Encode()
		if !bytes.Equal(b1, b2) {
			t.Fatalf("encode not stable across save/load:\n%s\n%s", b1, b2)
		}
	})
}

func ExampleStore() {
	s := NewStore()
	k := Key{Collective: "allreduce", CommSize: 64, Bytes: 16384, Count: 2048, Hop: "net", TopoFP: "00000000000000ff"}
	s.Put(k, Entry{Algorithm: "rabenseifner", WinnerPs: 123456})
	e, ok := s.Lookup(k)
	fmt.Println(ok, e.Algorithm)
	// Output: true rabenseifner
}
