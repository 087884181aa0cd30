// Package geo models the geographic substrate of the measurement lab: named
// locations, great-circle distances, speed-of-light propagation delays, and
// the MaxMind/WHOIS-equivalent registries used to geolocate and attribute
// server IP addresses (paper §4.2).
package geo

import (
	"fmt"
	"math"
	"time"
)

// Point is a location on the globe in decimal degrees.
type Point struct {
	Lat, Lon float64
}

// Region identifies a coarse geographic area, used when reporting server
// locations the way the paper does ("Eastern U.S.", "Western U.S.", ...).
type Region string

const (
	RegionUSEast     Region = "Eastern U.S."
	RegionUSWest     Region = "Western U.S."
	RegionUSNorth    Region = "Northern U.S."
	RegionEurope     Region = "Europe"
	RegionMiddleEast Region = "Middle East"
	RegionUnknown    Region = "Unknown"
)

// Well-known places used by the default topology. Coordinates are approximate
// city centers; the model only needs relative distances.
var (
	Ashburn     = Point{39.04, -77.49}  // US East (Virginia)
	Fairfax     = Point{38.85, -77.31}  // US East (the paper's campus testbed)
	Minneapolis = Point{44.98, -93.27}  // US North vantage
	SanJose     = Point{37.34, -121.89} // US West
	LosAngeles  = Point{34.05, -118.24} // US West vantage
	London      = Point{51.51, -0.13}   // Europe
	TelAviv     = Point{32.08, 34.78}   // Middle East vantage
)

// RegionOf maps a point to the coarse region used in reports.
func RegionOf(p Point) Region {
	switch {
	case p.Lon < -30 && p.Lon >= -100 && p.Lat > 42:
		return RegionUSNorth
	case p.Lon < -100:
		return RegionUSWest
	case p.Lon < -30:
		return RegionUSEast
	case p.Lon < 25:
		return RegionEurope
	case p.Lon < 60:
		return RegionMiddleEast
	}
	return RegionUnknown
}

const earthRadiusKm = 6371.0

// DistanceKm returns the great-circle distance between two points.
func DistanceKm(a, b Point) float64 {
	la1 := a.Lat * math.Pi / 180
	la2 := b.Lat * math.Pi / 180
	dLat := (b.Lat - a.Lat) * math.Pi / 180
	dLon := (b.Lon - a.Lon) * math.Pi / 180
	h := math.Sin(dLat/2)*math.Sin(dLat/2) +
		math.Cos(la1)*math.Cos(la2)*math.Sin(dLon/2)*math.Sin(dLon/2)
	return 2 * earthRadiusKm * math.Asin(math.Min(1, math.Sqrt(h)))
}

// PropagationDelay converts a great-circle distance into a one-way
// propagation delay. Light in fiber covers ~200 km/ms; real paths are not
// great circles, so a route-stretch factor of 1.75 is applied — this lands
// the US-East→US-West RTT near 72 ms and Europe→US-West near 150 ms,
// matching Table 2 and §4.2.
func PropagationDelay(a, b Point) time.Duration {
	const kmPerMs = 200.0
	const stretch = 1.75
	ms := DistanceKm(a, b) * stretch / kmPerMs
	return time.Duration(ms * float64(time.Millisecond))
}

// Owner identifies the organization operating an address block, as WHOIS
// would report it.
type Owner string

const (
	OwnerMicrosoft  Owner = "Microsoft"
	OwnerMeta       Owner = "Meta"
	OwnerAWS        Owner = "AWS"
	OwnerCloudflare Owner = "Cloudflare"
	OwnerANS        Owner = "ANS"
	OwnerCampus     Owner = "Campus"
	OwnerUnknown    Owner = "Unknown"
)

// Record is a registry entry for one server address: the MaxMind-equivalent
// location plus the WHOIS-equivalent owner. Anycast addresses carry no
// stable location, mirroring how geolocation databases mislead for anycast
// (§4.2).
type Record struct {
	Addr     uint32
	Loc      Point
	Anycast  bool
	Owner    Owner
	Hostname string
}

// Registry is the combined geolocation (MaxMind/ipinfo substitute) and
// ownership (WHOIS substitute) database for the simulated address space,
// keyed by address.
type Registry struct {
	records map[uint32]Record
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{records: make(map[uint32]Record)} }

// Add registers rec under its address. An address registered twice panics.
func (r *Registry) Add(rec Record) {
	if _, dup := r.records[rec.Addr]; dup {
		panic(fmt.Sprintf("geo: duplicate registry address %#08x", rec.Addr))
	}
	r.records[rec.Addr] = rec
}

// LocationOf reports the region MaxMind would claim for addr. Anycast
// addresses report RegionUnknown: the database answer is meaningless for
// them, which is exactly why the paper cross-checks with traceroute.
func (r *Registry) LocationOf(addr uint32) Region {
	rec, ok := r.records[addr]
	if !ok || rec.Anycast {
		return RegionUnknown
	}
	return RegionOf(rec.Loc)
}

// OwnerOf reports the WHOIS owner for addr.
func (r *Registry) OwnerOf(addr uint32) Owner {
	rec, ok := r.records[addr]
	if !ok {
		return OwnerUnknown
	}
	return rec.Owner
}

// HostnameOf reports the reverse-DNS name for addr, if registered.
func (r *Registry) HostnameOf(addr uint32) string { return r.records[addr].Hostname }
