package pagetab

import (
	"math/rand"
	"slices"
	"testing"
)

type rec struct{ v uint64 }

// TestTableMatchesMap drives the table and a reference map with the same
// sparse page numbers — heap-like, arena-like, window-like and random
// 52-bit ones, enough regions to take the binary-search path — and
// checks Get, Ensure, Len and the ordered Walk against the map.
func TestTableMatchesMap(t *testing.T) {
	var tab Table[rec]
	ref := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(1))
	bases := []uint64{0x10000, 0x4_0000_0000 >> 12, 0x8_0000_0000 >> 12, 1 << 28, 1<<28 + 1<<16}
	for i := 0; i < 4000; i++ {
		var pn uint64
		switch i % 3 {
		case 0:
			pn = bases[rng.Intn(len(bases))] + uint64(rng.Intn(1<<17))
		case 1:
			pn = uint64(rng.Int63()) & (1<<52 - 1)
		default:
			pn = uint64(i)
		}
		p, created := tab.Ensure(pn)
		if _, ok := ref[pn]; ok == created {
			t.Fatalf("Ensure(%#x) created=%v, map has it=%v", pn, created, ok)
		}
		p.v = pn ^ 0xabc
		ref[pn] = pn ^ 0xabc
	}
	if tab.Len() != len(ref) {
		t.Fatalf("Len %d, want %d", tab.Len(), len(ref))
	}
	if len(tab.regions) <= 8 {
		t.Fatalf("only %d regions: binary search path not exercised", len(tab.regions))
	}
	for pn, v := range ref {
		if p := tab.Get(pn); p == nil || p.v != v {
			t.Fatalf("Get(%#x) = %v, want %#x", pn, p, v)
		}
		if p := tab.Get(pn + 1<<40); p != nil {
			if _, ok := ref[pn+1<<40]; !ok {
				t.Fatalf("Get(%#x) found an absent page", pn+1<<40)
			}
		}
	}
	want := make([]uint64, 0, len(ref))
	for pn := range ref {
		want = append(want, pn)
	}
	slices.Sort(want)
	var got []uint64
	tab.Walk(func(pn uint64, p *rec) bool {
		if p.v != ref[pn] {
			t.Fatalf("Walk page %#x carries %#x", pn, p.v)
		}
		got = append(got, pn)
		return true
	})
	if !slices.Equal(got, want) {
		t.Fatalf("Walk visited %d pages out of order or incompletely (want %d)", len(got), len(want))
	}
	n := 0
	tab.Walk(func(uint64, *rec) bool { n++; return n < 10 })
	if n != 10 {
		t.Fatalf("Walk did not stop early: %d calls", n)
	}
}

// TestGetMissIsNotRemembered: a lookup that misses must not make the
// table claim the page exists.
func TestGetMissIsNotRemembered(t *testing.T) {
	var tab Table[rec]
	if tab.Get(0) != nil {
		t.Fatal("empty table returned page 0")
	}
	tab.Ensure(5)
	if tab.Get(0) != nil || tab.Get(6) != nil {
		t.Fatal("absent page returned")
	}
	if p := tab.Get(5); p == nil {
		t.Fatal("present page lost")
	}
}

func BenchmarkGetSamePage(b *testing.B) {
	var tab Table[rec]
	tab.Ensure(0x10)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += tab.Get(0x10).v
	}
	_ = sink
}

func BenchmarkGetCrossPage(b *testing.B) {
	var tab Table[rec]
	const pages = 1024
	for i := uint64(0); i < pages; i++ {
		tab.Ensure(0x10000 + i*3)
	}
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += tab.Get(0x10000 + uint64(i%pages)*3).v
	}
	_ = sink
}
