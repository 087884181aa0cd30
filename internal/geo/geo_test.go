package geo

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestDistanceKnownPairs(t *testing.T) {
	// Coast-to-coast US is roughly 3,600–4,000 km.
	d := DistanceKm(Ashburn, SanJose)
	if d < 3200 || d > 4200 {
		t.Fatalf("Ashburn-SanJose = %.0f km, want ~3600-4000", d)
	}
	// Transatlantic (Ashburn-London) is roughly 5,900 km.
	d = DistanceKm(Ashburn, London)
	if d < 5300 || d > 6500 {
		t.Fatalf("Ashburn-London = %.0f km, want ~5900", d)
	}
}

func TestDistanceSymmetricAndZero(t *testing.T) {
	if DistanceKm(London, London) != 0 {
		t.Fatal("distance to self != 0")
	}
	ab := DistanceKm(Ashburn, London)
	ba := DistanceKm(London, Ashburn)
	if ab != ba {
		t.Fatalf("asymmetric distance: %v vs %v", ab, ba)
	}
}

func TestPropertyDistanceTriangleInequality(t *testing.T) {
	clampPoint := func(lat, lon float64) Point {
		// Map arbitrary floats into valid coordinate ranges.
		wrap := func(v, lo, hi float64) float64 {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return lo
			}
			span := hi - lo
			v = math.Mod(v-lo, span)
			if v < 0 {
				v += span
			}
			return v + lo
		}
		return Point{Lat: wrap(lat, -90, 90), Lon: wrap(lon, -180, 180)}
	}
	f := func(a1, o1, a2, o2, a3, o3 float64) bool {
		p1 := clampPoint(a1, o1)
		p2 := clampPoint(a2, o2)
		p3 := clampPoint(a3, o3)
		// Allow small numeric slack.
		return DistanceKm(p1, p3) <= DistanceKm(p1, p2)+DistanceKm(p2, p3)+1e-6
	}
	cfg := &quick.Config{MaxCount: 300}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPropagationDelayCalibration(t *testing.T) {
	// East-coast testbed to west-coast server: the paper reports ~72 ms RTT
	// (Table 2). One-way propagation should be in the ~28-36 ms range so
	// that RTT plus per-hop costs lands near 72.
	d := PropagationDelay(Fairfax, SanJose)
	if d < 25*time.Millisecond || d > 38*time.Millisecond {
		t.Fatalf("Fairfax->SanJose one-way = %v, want 25-38ms", d)
	}
	// Europe to US West: the paper reports ~140-150 ms RTT.
	d = PropagationDelay(London, SanJose)
	if d < 55*time.Millisecond || d > 80*time.Millisecond {
		t.Fatalf("London->SanJose one-way = %v, want 55-80ms", d)
	}
}

func TestRegionOf(t *testing.T) {
	cases := []struct {
		p    Point
		want Region
	}{
		{Ashburn, RegionUSEast},
		{Fairfax, RegionUSEast},
		{SanJose, RegionUSWest},
		{LosAngeles, RegionUSWest},
		{London, RegionEurope},
		{TelAviv, RegionMiddleEast},
		{Minneapolis, RegionUSNorth},
	}
	for _, c := range cases {
		if got := RegionOf(c.p); got != c.want {
			t.Errorf("RegionOf(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestRegistryAnycastHidesLocation(t *testing.T) {
	r := NewRegistry()
	r.Add(Record{Addr: 0xC0000001, Owner: OwnerCloudflare, Anycast: true, Loc: SanJose})
	r.Add(Record{Addr: 0xC0000002, Owner: OwnerAWS, Loc: SanJose})
	if got := r.LocationOf(0xC0000001); got != RegionUnknown {
		t.Fatalf("anycast LocationOf = %v, want Unknown", got)
	}
	if got := r.OwnerOf(0xC0000001); got != OwnerCloudflare {
		t.Fatalf("anycast OwnerOf = %v, want Cloudflare", got)
	}
	if got := r.LocationOf(0xC0000002); got != RegionUSWest {
		t.Fatalf("unicast LocationOf = %v, want %v", got, RegionUSWest)
	}
	// Only registered addresses are known: a neighbour is not.
	if got := r.OwnerOf(0xC0000003); got != OwnerUnknown {
		t.Fatalf("OwnerOf(unregistered) = %v, want Unknown", got)
	}
	if got := r.LocationOf(0xC0000003); got != RegionUnknown {
		t.Fatalf("LocationOf(unregistered) = %v, want Unknown", got)
	}
}

func TestRegistryHostname(t *testing.T) {
	r := NewRegistry()
	r.Add(Record{Addr: 0x0A000001, Owner: OwnerMeta, Hostname: "edge-star-shv-01-iad3.facebook.com"})
	if got := r.HostnameOf(0x0A000001); got != "edge-star-shv-01-iad3.facebook.com" {
		t.Fatalf("HostnameOf = %q", got)
	}
	if got := r.HostnameOf(0x0A000002); got != "" {
		t.Fatalf("HostnameOf unknown = %q, want empty", got)
	}
}

func TestRegistryDuplicateAddressPanics(t *testing.T) {
	r := NewRegistry()
	r.Add(Record{Addr: 0x0A000001, Owner: OwnerMeta})
	defer func() {
		if recover() == nil {
			t.Fatal("an address registered twice did not panic")
		}
		if got := r.OwnerOf(0x0A000001); got != OwnerMeta {
			t.Fatalf("OwnerOf after the refused Add = %v, want Meta", got)
		}
	}()
	r.Add(Record{Addr: 0x0A000001, Owner: OwnerAWS})
}
