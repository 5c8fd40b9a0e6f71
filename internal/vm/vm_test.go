package vm

import (
	"errors"
	"testing"
	"testing/quick"
)

func twoZone(boPages, coPages int) *Space {
	return NewSpace(DefaultPageSize, []ZoneConfig{
		{Name: "BO", CapacityPages: boPages},
		{Name: "CO", CapacityPages: coPages},
	})
}

func TestNewSpacePanics(t *testing.T) {
	cases := []struct {
		name string
		fn   func()
	}{
		{"non-pow2 page", func() { NewSpace(1000, []ZoneConfig{{Name: "x", CapacityPages: 1}}) }},
		{"zero page", func() { NewSpace(0, []ZoneConfig{{Name: "x", CapacityPages: 1}}) }},
		{"no zones", func() { NewSpace(4096, nil) }},
		{"too many zones", func() { NewSpace(4096, make([]ZoneConfig, MaxZones+1)) }},
		{"negative capacity", func() { NewSpace(4096, []ZoneConfig{{Name: "x", CapacityPages: -1}}) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			tc.fn()
		})
	}
}

func TestMapAndTranslate(t *testing.T) {
	s := twoZone(10, 10)
	if err := s.MapPage(0, ZoneBO); err != nil {
		t.Fatal(err)
	}
	if err := s.MapPage(1, ZoneCO); err != nil {
		t.Fatal(err)
	}
	pa0, ok := s.Translate(100)
	if !ok {
		t.Fatal("page 0 unmapped")
	}
	if ZoneOfPA(pa0) != ZoneBO {
		t.Fatalf("page 0 in zone %d, want BO", ZoneOfPA(pa0))
	}
	if pa0&(DefaultPageSize-1) != 100 {
		t.Fatalf("offset not preserved: pa=%#x", pa0)
	}
	pa1, ok := s.Translate(DefaultPageSize + 5)
	if !ok {
		t.Fatal("page 1 unmapped")
	}
	if ZoneOfPA(pa1) != ZoneCO {
		t.Fatalf("page 1 in zone %d, want CO", ZoneOfPA(pa1))
	}
	if _, ok := s.Translate(10 * DefaultPageSize); ok {
		t.Fatal("unmapped address translated")
	}
}

func TestZoneFull(t *testing.T) {
	s := twoZone(2, Unlimited)
	if err := s.MapPage(0, ZoneBO); err != nil {
		t.Fatal(err)
	}
	if err := s.MapPage(1, ZoneBO); err != nil {
		t.Fatal(err)
	}
	err := s.MapPage(2, ZoneBO)
	if !errors.Is(err, ErrZoneFull) {
		t.Fatalf("third map into 2-page zone = %v, want ErrZoneFull", err)
	}
	// CO is unlimited; spilling there must work.
	if err := s.MapPage(2, ZoneCO); err != nil {
		t.Fatal(err)
	}
	if s.ZoneFree(ZoneCO) != Unlimited {
		t.Fatal("unlimited zone reported finite free space")
	}
}

func TestDoubleMap(t *testing.T) {
	s := twoZone(10, 10)
	if err := s.MapPage(3, ZoneBO); err != nil {
		t.Fatal(err)
	}
	if err := s.MapPage(3, ZoneCO); !errors.Is(err, ErrMapped) {
		t.Fatalf("double map = %v, want ErrMapped", err)
	}
}

func TestMapBadZone(t *testing.T) {
	s := twoZone(10, 10)
	if err := s.MapPage(0, ZoneID(5)); err == nil {
		t.Fatal("map into nonexistent zone succeeded")
	}
}

func TestUsageAccounting(t *testing.T) {
	s := twoZone(5, 5)
	for i := uint64(0); i < 3; i++ {
		if err := s.MapPage(i, ZoneBO); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.ZoneUsed(ZoneBO); got != 3 {
		t.Fatalf("ZoneUsed(BO) = %d, want 3", got)
	}
	if got := s.ZoneFree(ZoneBO); got != 2 {
		t.Fatalf("ZoneFree(BO) = %d, want 2", got)
	}
	if got := s.MappedPages(); got != 3 {
		t.Fatalf("MappedPages = %d, want 3", got)
	}
	if got := s.ZoneUsed(ZoneCO); got != 0 {
		t.Fatalf("ZoneUsed(CO) = %d, want 0", got)
	}
}

func TestPageZone(t *testing.T) {
	s := twoZone(5, 5)
	s.MapPage(7, ZoneCO)
	z, ok := s.PageZone(7)
	if !ok || z != ZoneCO {
		t.Fatalf("PageZone(7) = (%d,%v), want (CO,true)", z, ok)
	}
	if _, ok := s.PageZone(8); ok {
		t.Fatal("unmapped PageZone ok")
	}
	if _, ok := s.PageZone(1 << 30); ok {
		t.Fatal("out-of-range PageZone ok")
	}
}

func TestDistinctPhysicalPages(t *testing.T) {
	s := twoZone(100, 100)
	seen := make(map[uint64]bool)
	for i := uint64(0); i < 100; i++ {
		z := ZoneBO
		if i%3 == 0 {
			z = ZoneCO
		}
		if err := s.MapPage(i, z); err != nil {
			t.Fatal(err)
		}
		pa, _ := s.Translate(i * DefaultPageSize)
		if seen[pa] {
			t.Fatalf("physical page %#x allocated twice", pa)
		}
		seen[pa] = true
	}
}

func TestPagesFor(t *testing.T) {
	cases := []struct {
		bytes uint64
		want  int
	}{
		{0, 0}, {1, 1}, {4096, 1}, {4097, 2}, {8192, 2}, {12288, 3},
	}
	for _, tc := range cases {
		if got := PagesFor(tc.bytes, 4096); got != tc.want {
			t.Errorf("PagesFor(%d) = %d, want %d", tc.bytes, got, tc.want)
		}
	}
}

func TestZoneNames(t *testing.T) {
	s := twoZone(1, 1)
	if len(s.zones) != 2 || s.zones[ZoneBO].cfg.Name != "BO" || s.zones[ZoneCO].cfg.Name != "CO" {
		t.Fatalf("zones = %+v, want BO and CO", s.zones)
	}
	if s.ZoneCapacity(ZoneBO) != 1 {
		t.Fatalf("ZoneCapacity(BO) = %d, want 1", s.ZoneCapacity(ZoneBO))
	}
}

// Property: translation round-trips — for any mapped page, ZoneOfPA of the
// translated address equals the zone it was mapped to, and offsets are
// preserved for any offset within the page.
func TestPropertyTranslateRoundTrip(t *testing.T) {
	f := func(vpageRaw uint16, off uint16, zRaw bool) bool {
		s := twoZone(Unlimited, Unlimited)
		vpage := uint64(vpageRaw % 4096)
		z := ZoneBO
		if zRaw {
			z = ZoneCO
		}
		if err := s.MapPage(vpage, z); err != nil {
			return false
		}
		va := vpage*DefaultPageSize + uint64(off)%DefaultPageSize
		pa, ok := s.Translate(va)
		if !ok {
			return false
		}
		return ZoneOfPA(pa) == z && pa&(DefaultPageSize-1) == va&(DefaultPageSize-1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: used counts always equal successfully mapped pages per zone.
func TestPropertyUsageConservation(t *testing.T) {
	f := func(choices []bool) bool {
		s := twoZone(len(choices), len(choices))
		want := map[ZoneID]int{}
		for i, c := range choices {
			z := ZoneBO
			if c {
				z = ZoneCO
			}
			if err := s.MapPage(uint64(i), z); err == nil {
				want[z]++
			}
		}
		return s.ZoneUsed(ZoneBO) == want[ZoneBO] && s.ZoneUsed(ZoneCO) == want[ZoneCO]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTranslate(b *testing.B) {
	s := twoZone(Unlimited, Unlimited)
	for i := uint64(0); i < 1024; i++ {
		s.MapPage(i, ZoneID(i%2))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Translate(uint64(i%1024) * DefaultPageSize)
	}
}

// TestTranslateCached: hits agree with Translate, and Remap/Unmap
// invalidate outstanding caches through the generation stamp.
func TestTranslateCached(t *testing.T) {
	s := NewSpace(DefaultPageSize, []ZoneConfig{
		{Name: "BO", CapacityPages: 8}, {Name: "CO", CapacityPages: 8},
	})
	if err := s.MapPage(3, ZoneBO); err != nil {
		t.Fatal(err)
	}
	var tc TransCache
	va := uint64(3*DefaultPageSize + 17)
	pa, ok := s.TranslateCached(&tc, va)
	want, _ := s.Translate(va)
	if !ok || pa != want {
		t.Fatalf("TranslateCached = %#x,%v; Translate = %#x", pa, ok, want)
	}
	// Cached hit on the same page, different offset.
	pa2, ok := s.TranslateCached(&tc, va+1)
	if !ok || pa2 != want+1 {
		t.Fatalf("cached hit = %#x,%v, want %#x", pa2, ok, want+1)
	}
	// Remap must invalidate: the cached PA is stale afterwards.
	if _, _, err := s.Remap(3, ZoneCO); err != nil {
		t.Fatal(err)
	}
	pa3, ok := s.TranslateCached(&tc, va)
	want3, _ := s.Translate(va)
	if !ok || pa3 != want3 {
		t.Fatalf("post-remap TranslateCached = %#x,%v, want %#x", pa3, ok, want3)
	}
	if ZoneOfPA(pa3) != ZoneCO {
		t.Fatalf("post-remap zone = %d, want ZoneCO", ZoneOfPA(pa3))
	}
	// Unmap must invalidate too: the lookup now misses.
	if err := s.Unmap(3); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.TranslateCached(&tc, va); ok {
		t.Fatal("TranslateCached hit an unmapped page")
	}
	// Unmapped lookups must not poison the cache.
	if _, ok := s.TranslateCached(&tc, 100*DefaultPageSize); ok {
		t.Fatal("TranslateCached hit a never-mapped page")
	}
}

// TestAscendingFirstTouchAmortized: 100k first touches in ascending page
// order, committed through the deferred path in barrier-sized batches,
// keep TableSpan and PageZone exact while the page table reallocates only
// O(log n) times.
func TestAscendingFirstTouchAmortized(t *testing.T) {
	const pages, batch = 100_000, 64
	var s *Space
	touch := func() {
		s = twoZone(Unlimited, Unlimited)
		s.SetDeferred(true)
		for p := uint64(0); p < pages; p++ {
			if err := s.MapPage(p, ZoneID(p%2)); err != nil {
				t.Fatal(err)
			}
			if p%batch == batch-1 {
				s.FlushPending()
				if got := s.TableSpan(); got != p+1 {
					t.Fatalf("TableSpan = %d after flushing page %d, want %d", got, p, p+1)
				}
			}
		}
		s.FlushPending()
	}
	// The table's three slices double 17 times each on the way to 100k
	// pages; NewSpace and the pending list and set add a fixed ~30.
	// Reallocating per new page would cost 300k.
	if allocs := testing.AllocsPerRun(1, touch); allocs > 100 {
		t.Fatalf("%d ascending first touches allocated %.0f times, want O(log n)", pages, allocs)
	}
	if got := s.TableSpan(); got != pages {
		t.Fatalf("TableSpan = %d, want %d", got, pages)
	}
	for p := uint64(0); p < pages; p++ {
		if z, ok := s.PageZone(p); !ok || z != ZoneID(p%2) {
			t.Fatalf("PageZone(%d) = %d,%v, want %d", p, z, ok, p%2)
		}
	}
	if _, ok := s.PageZone(pages); ok {
		t.Fatal("PageZone past the table span reports a mapping")
	}
	if _, ok := s.Translate(pages * DefaultPageSize); ok {
		t.Fatal("Translate past the table span hit")
	}
}

// BenchmarkSpaceFirstTouch is the page-table side of first-touch
// placement: ascending MapPage calls committed in barrier-sized batches,
// per page.
func BenchmarkSpaceFirstTouch(b *testing.B) {
	const pages, batch = 1 << 16, 64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := twoZone(Unlimited, Unlimited)
		s.SetDeferred(true)
		for p := uint64(0); p < pages; p++ {
			if err := s.MapPage(p, ZoneID(p%2)); err != nil {
				b.Fatal(err)
			}
			if p%batch == batch-1 {
				s.FlushPending()
			}
		}
		s.FlushPending()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*pages), "ns/page")
}

// TestReleasedTablesReadEmpty: a space built right after another released
// its tables — pages mapped in both zones, mappings still pending, one
// remapped — reads as new: nothing mapped or pending, and the same
// mappings give the same translations as in a new space. Repeated, so the
// taking space gets the released tables whenever the pool hands them back.
func TestReleasedTablesReadEmpty(t *testing.T) {
	const span = 3000
	for round := range 4 {
		old := twoZone(Unlimited, Unlimited)
		old.SetDeferred(true)
		for p := uint64(0); p < span; p += 3 {
			if err := old.MapPage(p, ZoneID(p%2)); err != nil {
				t.Fatal(err)
			}
		}
		old.FlushPending()
		if _, _, err := old.Remap(3, ZoneBO); err != nil {
			t.Fatal(err)
		}
		for p := uint64(1); p < 300; p += 3 {
			if err := old.MapPage(p, ZoneCO); err != nil {
				t.Fatal(err)
			}
		}
		old.Release()

		got := twoZone(Unlimited, Unlimited)
		for spares.Get() != nil {
		}
		want := twoZone(Unlimited, Unlimited)
		if got.TableSpan() != 0 || got.MappedPages() != 0 || got.PendingMappings() != 0 {
			t.Fatalf("round %d: span %d, %d mapped, %d pending, want an empty space",
				round, got.TableSpan(), got.MappedPages(), got.PendingMappings())
		}
		for p := uint64(0); p < span; p++ {
			if got.MappedOrPending(p) {
				t.Fatalf("round %d: page %d of the released space reads as mapped", round, p)
			}
		}
		for _, s := range []*Space{got, want} {
			for p := uint64(0); p < span/2; p += 2 {
				if err := s.MapPage(p, ZoneID(p%4/2)); err != nil {
					t.Fatal(err)
				}
			}
			s.SetDeferred(true)
			for p := uint64(span / 2); p < span+100; p += 5 {
				if err := s.MapPage(p, ZoneCO); err != nil {
					t.Fatal(err)
				}
			}
			s.FlushPending()
		}
		if got.TableSpan() != want.TableSpan() {
			t.Fatalf("round %d: TableSpan %d, a new space %d", round, got.TableSpan(), want.TableSpan())
		}
		for p := uint64(0); p < span+200; p++ {
			gp, gok := got.Translate(p * DefaultPageSize)
			wp, wok := want.Translate(p * DefaultPageSize)
			if gp != wp || gok != wok {
				t.Fatalf("round %d: page %d translates to %#x,%v, in a new space %#x,%v", round, p, gp, gok, wp, wok)
			}
		}
	}
}
