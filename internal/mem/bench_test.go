package mem

import "testing"

// Page-table lookups for same-page and cross-page access, watched
// separately.

var benchSink uint64

func BenchmarkReadWordSamePage(b *testing.B) {
	m := New()
	m.WriteWord(0x1000, 42)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += m.ReadWord(0x1000)
	}
}

func BenchmarkReadWordFBitSamePage(b *testing.B) {
	m := New()
	m.WriteWordFBit(0x1000, 42, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, _ := m.ReadWordFBit(0x1000 + Addr(i&0x3f8))
		benchSink += v
	}
}

func BenchmarkWriteWordFBitSamePage(b *testing.B) {
	m := New()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.WriteWordFBit(0x1000+Addr(i&0x3f8), uint64(i), i&1 == 0)
	}
}

func BenchmarkReadWordCrossPageSweep(b *testing.B) {
	m := New()
	const pages = 64
	for i := 0; i < pages; i++ {
		m.WriteWord(Addr(i)*PageBytes, uint64(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink += m.ReadWord(Addr(i%pages) * PageBytes)
	}
}

// The word/fbit accessors are the innermost simulator operations; they
// must not allocate once the pages they touch are materialized.
func TestHotAccessorsZeroAlloc(t *testing.T) {
	m := New()
	m.WriteWordFBit(0x1000, 1, true)
	m.WriteWord(0x2000, 2) // neighbouring page for cache churn
	allocs := testing.AllocsPerRun(1000, func() {
		benchSink += m.ReadWord(0x1000)
		_, _ = m.ReadWordFBit(0x1000)
		_ = m.FBit(0x2000)
		m.WriteWordFBit(0x2000, 3, false)
	})
	if allocs != 0 {
		t.Fatalf("hot accessors allocated %.1f times per run, want 0", allocs)
	}
}
