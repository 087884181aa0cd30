package platform

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/svrlab/svrlab/internal/geo"
	"github.com/svrlab/svrlab/internal/netsim"
	"github.com/svrlab/svrlab/internal/obs"
	"github.com/svrlab/svrlab/internal/packet"
	"github.com/svrlab/svrlab/internal/simtime"
)

// Well-known ports used by the platform models.
const (
	PortControl = 443  // HTTPS control channels
	PortData    = 4000 // UDP data channels
	PortSFU     = 5004 // Hubs WebRTC voice SFU
	PortAsset   = 443  // asset/CDN downloads (separate hosts)
)

// Site names in the default topology.
const (
	SiteCampus     = "campus" // the paper's east-coast testbed
	SiteUSEast     = "us-east"
	SiteUSNorth    = "us-north"
	SiteUSWest     = "us-west"
	SiteLA         = "la"
	SiteEurope     = "europe"
	SiteMiddleEast = "middle-east"
)

// Deployment is a fully built lab: the fabric, the five platforms' server
// fleets, the provider address registry, and client factories.
type Deployment struct {
	Sched *simtime.Scheduler
	Net   *netsim.Network
	Sites map[string]*netsim.Site

	backends map[Name]*Backend
	control  map[Name]*serverSet
	data     map[Name]*serverSet
	sfu      map[Name]*serverSet // Hubs voice
	assets   map[Name]*serverSet

	// traces collects latency-rig observations keyed by action id.
	traces map[uint32]*ActionTrace
	// actionSeq allocates deployment-local action ids; keeping it here (not
	// package-level) makes concurrent labs race-free and ids reproducible.
	actionSeq uint32

	nextHostIdx int
	lbCounter   int
	rng         *rand.Rand
}

// serverSet is one platform channel's fleet.
type serverSet struct {
	placement Placement
	// sites holds the regional deployment locations (PlaceRegional).
	sites []string
	// anycast pool addresses (PlaceAnycast): co-located clients are spread
	// across pool entries for load balancing.
	pool []packet.Addr
	// regional unicast addresses by site (PlaceRegional); for data channels
	// two instances per site exist so co-located users can be split.
	bySite map[string][]packet.Addr
	// single unicast address (PlaceWestOnly).
	single packet.Addr
}

// ActionTrace records one latency-rig action's raw timestamps. Client-side
// values are in the *local clock* of the device that produced them; the
// experiment corrects them with the measured clock offsets, exactly as the
// paper synchronizes headsets through the WiFi AP (§7). With more than two
// users every receiver displays the action, so receiver-side timestamps are
// kept per user.
type ActionTrace struct {
	ID               uint32
	TriggeredAtLocal time.Duration // sender local clock
	SentAt           time.Duration // sim clock: packet left sender app
	ServerInAt       time.Duration
	ServerOutAt      time.Duration

	receivers map[string]*ReceiverTrace
}

// ReceiverTrace is one receiver's view of a marked action.
type ReceiverTrace struct {
	ReceivedAt       time.Duration // sim clock: packet reached receiver app
	DisplayedAtLocal time.Duration // receiver local clock
	Displayed        bool
}

// Receiver returns (creating if needed) the per-user receiver trace.
func (t *ActionTrace) Receiver(user string) *ReceiverTrace {
	if t.receivers == nil {
		t.receivers = make(map[string]*ReceiverTrace)
	}
	r, ok := t.receivers[user]
	if !ok {
		r = &ReceiverTrace{}
		t.receivers[user] = r
	}
	return r
}

// NewDeployment builds the default world: seven sites, the five platforms'
// fleets, and the geolocation/WHOIS registry. The fabric records into m (nil
// gets a fresh private registry).
func NewDeployment(sched *simtime.Scheduler, seed int64, m *obs.Registry) *Deployment {
	d := &Deployment{
		Sched:    sched,
		Net:      netsim.New(sched, seed, m),
		Sites:    make(map[string]*netsim.Site),
		backends: make(map[Name]*Backend),
		control:  make(map[Name]*serverSet),
		data:     make(map[Name]*serverSet),
		sfu:      make(map[Name]*serverSet),
		assets:   make(map[Name]*serverSet),
		traces:   make(map[uint32]*ActionTrace),
		rng:      rand.New(rand.NewSource(seed ^ 0x5eed)),
	}
	d.buildTopology()
	for _, p := range All() {
		d.deployPlatform(p)
	}
	return d
}

// Metrics returns the deployment's metrics registry (the fabric's; never
// nil).
func (d *Deployment) Metrics() *obs.Registry { return d.Net.Metrics }

func (d *Deployment) buildTopology() {
	add := func(name string, loc geo.Point, router string) *netsim.Site {
		s := d.Net.AddSite(name, loc, packet.MustParseAddr(router))
		d.Sites[name] = s
		return s
	}
	campus := add(SiteCampus, geo.Fairfax, "10.1.0.1")
	usEast := add(SiteUSEast, geo.Ashburn, "10.0.0.1")
	usNorth := add(SiteUSNorth, geo.Minneapolis, "10.2.0.1")
	usWest := add(SiteUSWest, geo.SanJose, "10.3.0.1")
	la := add(SiteLA, geo.LosAngeles, "10.4.0.1")
	europe := add(SiteEurope, geo.London, "10.5.0.1")
	me := add(SiteMiddleEast, geo.TelAviv, "10.6.0.1")

	d.Net.Connect(campus, usEast)
	d.Net.Connect(usEast, usNorth)
	d.Net.Connect(usEast, usWest)
	d.Net.Connect(usWest, la)
	d.Net.Connect(usEast, europe)
	d.Net.Connect(europe, me)
}

// serverSites are the locations where globally distributed fleets have
// instances.
var serverSites = []string{SiteUSEast, SiteUSNorth, SiteUSWest, SiteLA, SiteEurope, SiteMiddleEast}

// provider address blocks: index within the /16 identifies the instance.
var providerBlocks = map[geo.Owner]uint32{
	geo.OwnerMicrosoft:  packetAddr("13.107.0.0"),
	geo.OwnerMeta:       packetAddr("157.240.0.0"),
	geo.OwnerAWS:        packetAddr("52.10.0.0"),
	geo.OwnerCloudflare: packetAddr("104.16.0.0"),
	geo.OwnerANS:        packetAddr("199.0.0.0"),
}

func packetAddr(s string) uint32 { return uint32(packet.MustParseAddr(s)) }

func (d *Deployment) nextAddr(owner geo.Owner) packet.Addr {
	d.nextHostIdx++
	return packet.Addr(providerBlocks[owner] + uint32(d.nextHostIdx))
}

func (d *Deployment) registerAddr(a packet.Addr, owner geo.Owner, site string, anycast bool, hostname string) {
	rec := geo.Record{Addr: uint32(a), Owner: owner, Anycast: anycast, Hostname: hostname}
	if !anycast && site != "" {
		rec.Loc = d.Sites[site].Loc
	}
	d.Net.Registry.Add(rec)
}

// deployPlatform builds all server fleets for one platform.
func (d *Deployment) deployPlatform(p *Profile) {
	be := newBackend(d, p)
	d.backends[p.Name] = be

	ctrlSites := p.ControlSites
	if len(ctrlSites) == 0 {
		ctrlSites = serverSites
	}
	d.control[p.Name] = d.buildSet(p, p.ControlPlacement, p.ControlOwner, p.ControlHostname, 1, ctrlSites, func(h *netsim.Host) {
		newCtrlServer(d, p, be, h, false)
	})
	if p.WebData {
		// Hubs: avatar data rides the HTTPS control fleet; voice rides a
		// dedicated west-coast SFU.
		d.data[p.Name] = d.control[p.Name]
		d.sfu[p.Name] = d.buildSet(p, PlaceWestOnly, p.DataOwner, p.DataHostname, 1, serverSites, func(h *netsim.Host) {
			newSFUServer(d, h)
		})
	} else {
		instances := 1
		if !p.SameServerForColocated {
			instances = 2 // co-located users are load-balanced apart
		}
		d.data[p.Name] = d.buildSet(p, p.DataPlacement, p.DataOwner, p.DataHostname, instances, serverSites, func(h *netsim.Host) {
			newDataServer(d, be, h)
		})
	}
	// Asset/CDN host: west for Hubs (AWS), east for the rest.
	assetSite := SiteUSEast
	if p.Name == Hubs {
		assetSite = SiteUSWest
	}
	d.assets[p.Name] = d.buildUnicast(p, assetSite, p.ControlOwner, func(h *netsim.Host) {
		newAssetServer(d, h)
	})
}

// buildSet creates a fleet per the placement policy. instances is the number
// of distinct endpoints per location (for splitting co-located users).
func (d *Deployment) buildSet(p *Profile, place Placement, owner geo.Owner, hostname string, instances int, sites []string, start func(*netsim.Host)) *serverSet {
	set := &serverSet{placement: place, sites: sites}
	switch place {
	case PlaceAnycast:
		for i := 0; i < instances; i++ {
			svc := d.nextAddr(owner)
			d.registerAddr(svc, owner, "", true, hostname)
			var hosts []*netsim.Host
			for _, sn := range sites {
				h := d.newServerHost(p, owner, sn, start)
				hosts = append(hosts, h)
			}
			d.Net.AddAnycast(svc, hosts...)
			set.pool = append(set.pool, svc)
		}
	case PlaceRegional:
		set.bySite = make(map[string][]packet.Addr)
		for _, sn := range sites {
			for i := 0; i < instances; i++ {
				h := d.newServerHost(p, owner, sn, start)
				d.registerAddr(h.Addr, owner, sn, false, hostname)
				set.bySite[sn] = append(set.bySite[sn], h.Addr)
			}
		}
	case PlaceWestOnly:
		h := d.newServerHost(p, owner, SiteUSWest, start)
		d.registerAddr(h.Addr, owner, SiteUSWest, false, hostname)
		set.single = h.Addr
	}
	return set
}

func (d *Deployment) buildUnicast(p *Profile, site string, owner geo.Owner, start func(*netsim.Host)) *serverSet {
	h := d.newServerHost(p, owner, site, start)
	d.registerAddr(h.Addr, owner, site, false, "")
	return &serverSet{placement: PlaceWestOnly, single: h.Addr}
}

func (d *Deployment) newServerHost(p *Profile, owner geo.Owner, siteName string, start func(*netsim.Host)) *netsim.Host {
	addr := d.nextAddr(owner)
	id := fmt.Sprintf("%s-%s-%v", p.Name, siteName, addr)
	h := d.Net.AddHost(id, d.Sites[siteName], addr, netsim.DatacenterAccess())
	start(h)
	return h
}

// nearestServerSite returns the fleet site closest to a client site.
func (d *Deployment) nearestServerSite(from *netsim.Site, sites []string) string {
	best, bestD := sites[0], time.Duration(1<<62-1)
	for _, sn := range sites {
		dd := geo.PropagationDelay(from.Loc, d.Sites[sn].Loc)
		if dd < bestD {
			best, bestD = sn, dd
		}
	}
	return best
}

// ControlEndpoint resolves the control server a client at the given site is
// directed to (the DNS step).
func (d *Deployment) ControlEndpoint(p *Profile, from *netsim.Site) packet.Endpoint {
	set := d.control[p.Name]
	return packet.Endpoint{Addr: d.resolve(p, set, from, 0), Port: PortControl}
}

// DataEndpoint resolves the data server for a given client. The lbIndex
// spreads co-located users across instances on platforms that load-balance
// them apart.
func (d *Deployment) DataEndpoint(p *Profile, from *netsim.Site, lbIndex int) packet.Endpoint {
	set := d.data[p.Name]
	port := PortData
	if p.WebData {
		port = PortControl
	}
	return packet.Endpoint{Addr: d.resolve(p, set, from, lbIndex), Port: uint16(port)}
}

// VoiceEndpoint resolves the Hubs SFU.
func (d *Deployment) VoiceEndpoint(p *Profile, from *netsim.Site) packet.Endpoint {
	set := d.sfu[p.Name]
	if set == nil {
		return packet.Endpoint{}
	}
	return packet.Endpoint{Addr: set.single, Port: PortSFU}
}

// AssetEndpoint resolves the CDN host.
func (d *Deployment) AssetEndpoint(p *Profile) packet.Endpoint {
	return packet.Endpoint{Addr: d.assets[p.Name].single, Port: PortAsset}
}

func (d *Deployment) resolve(p *Profile, set *serverSet, from *netsim.Site, lbIndex int) packet.Addr {
	switch set.placement {
	case PlaceAnycast:
		return set.pool[lbIndex%len(set.pool)]
	case PlaceRegional:
		sn := d.nearestServerSite(from, set.sites)
		addrs := set.bySite[sn]
		return addrs[lbIndex%len(addrs)]
	default:
		return set.single
	}
}

// Backend returns a platform's shared room registry.
func (d *Deployment) Backend(n Name) *Backend { return d.backends[n] }

// nextActionID allocates the next action id for this deployment's latency
// rig.
func (d *Deployment) nextActionID() uint32 {
	d.actionSeq++
	return d.actionSeq
}

// Trace returns (creating if needed) the latency trace for an action.
func (d *Deployment) Trace(id uint32) *ActionTrace {
	t, ok := d.traces[id]
	if !ok {
		t = &ActionTrace{ID: id}
		d.traces[id] = t
	}
	return t
}

// DeployPrivateHubs stands up a self-hosted Hubs instance (the paper's AWS
// t3.medium in §7) at the given site and returns its control endpoint. From
// then on the deployment directs every Hubs client there: the control and
// data endpoints resolve to the instance's HTTPS server, and the voice
// endpoint to its SFU. The private server is lightly loaded: its
// per-message processing cost is the ~16 ms the paper measured instead of
// the public fleet's ~50 ms.
func (d *Deployment) DeployPrivateHubs(siteName string) packet.Endpoint {
	p := Get(Hubs)
	be := newBackend(d, p)
	ctrl := d.newServerHost(p, geo.OwnerAWS, siteName, func(h *netsim.Host) {
		newCtrlServer(d, p, be, h, true)
	})
	sfu := d.newServerHost(p, geo.OwnerAWS, siteName, func(h *netsim.Host) {
		newSFUServer(d, h)
	})
	d.control[Hubs] = &serverSet{placement: PlaceWestOnly, single: ctrl.Addr}
	d.data[Hubs] = d.control[Hubs]
	d.sfu[Hubs] = &serverSet{placement: PlaceWestOnly, single: sfu.Addr}
	return packet.Endpoint{Addr: ctrl.Addr, Port: PortControl}
}

// AddVantage attaches a measurement/client host (WiFi access) at a site,
// with the given last octet in the /24 of the site's router.
func (d *Deployment) AddVantage(id, siteName string, lastOctet int) *netsim.Host {
	site := d.Sites[siteName]
	if site == nil {
		panic("platform: unknown site " + siteName)
	}
	if lastOctet < 0 || lastOctet > 255 {
		panic(fmt.Sprintf("platform: host octet %d outside 0-255", lastOctet))
	}
	addr := site.Router&^0xff | packet.Addr(lastOctet)
	return d.Net.AddHost(id, site, addr, netsim.WiFiAccess())
}
