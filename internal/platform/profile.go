// Package platform implements executable models of the five social VR
// platforms the paper measures — AltspaceVR, Horizon Worlds, Mozilla Hubs,
// Rec Room, and VRChat — as real clients and servers running over the
// netsim fabric.
//
// Each Profile pins the platform's *inputs*: protocol mix, server placement,
// avatar codec and rates, periodic report behaviour, processing costs, and
// device cost model. Everything the paper reports (Tables 2-4, Figures 2-13)
// is then measured from captures and device samplers, not echoed from the
// profile. Calibration sources are cited per field group.
package platform

import (
	"time"

	"github.com/svrlab/svrlab/internal/avatar"
	"github.com/svrlab/svrlab/internal/device"
	"github.com/svrlab/svrlab/internal/geo"
)

// Name identifies one of the five platforms.
type Name string

// The five platforms (§3.1).
const (
	AltspaceVR Name = "AltspaceVR"
	Worlds     Name = "Horizon Worlds"
	Hubs       Name = "Mozilla Hubs"
	RecRoom    Name = "Rec Room"
	VRChat     Name = "VRChat"
)

// Placement says where a platform's servers for one channel live.
type Placement int

const (
	// PlaceAnycast: one shared service address with instances everywhere
	// (AltspaceVR/Rec Room control, Rec Room/VRChat data).
	PlaceAnycast Placement = iota
	// PlaceRegional: a distinct unicast server per region; clients are
	// directed to the nearest (VRChat/Worlds control and data; Hubs HTTPS
	// which exists only in US-West and Europe).
	PlaceRegional
	// PlaceWestOnly: a single unicast deployment in the western U.S.
	// (AltspaceVR data, Hubs WebRTC SFU).
	PlaceWestOnly
)

// Features is the Table 1 feature matrix.
type Features struct {
	Company       string
	ReleaseYear   int
	Locomotion    []string
	FacialExpr    bool
	PersonalSpace bool
	Game          bool
	ShareScreen   bool
	Shopping      bool
	NFT           bool
}

// LatencyModel holds the §7 processing-latency parameters (milliseconds).
// Sender/receiver costs are on-device pipeline latencies; the server cost is
// per-message forwarding latency. PerUserServer and PerUserReceiver grow the
// respective stages as users join (Figure 11's scalability).
type LatencyModel struct {
	SenderMs, SenderJitterMs     float64
	ReceiverMs, ReceiverJitterMs float64
	ServerMs, ServerJitterMs     float64
	PerUserServerMs              float64
	PerUserReceiverMs            float64
}

// TrafficModel holds the §5 traffic parameters beyond the avatar codec.
type TrafficModel struct {
	// SyncDownBps is continuous server->client world-state sync.
	SyncDownBps float64
	// HeartbeatUpBps is continuous client->server keepalive/state traffic.
	HeartbeatUpBps float64
	// TelemetryUpBps is an uplink-only stream the server absorbs (Worlds'
	// status reports — the reason its uplink ≫ downlink in Table 3).
	TelemetryUpBps float64
	// Report spikes on the control channel (§4.1): every ReportInterval the
	// client uploads ReportUpBytes and the server responds with
	// ReportDownBytes.
	ReportInterval                 time.Duration
	ReportUpBytes, ReportDownBytes int
	// Voice duty cycle during "walk and chat": fraction of time talking.
	VoiceDuty float64
	// Background download sizes (§5.2).
	InitDownloadBytes int // at app launch / welcome page
	JoinDownloadBytes int // at every event join (Hubs' missing cache)
}

// GameModel describes the platform's flagship shooting game (§8).
type GameModel struct {
	Name string
	// Target application rates during gameplay (wire-level, approximate).
	UpBps, DownBps float64
}

// Profile is the complete description of one platform.
type Profile struct {
	Name     Name
	Features Features

	// Network deployment (§4, Table 2).
	ControlPlacement, DataPlacement Placement
	ControlOwner, DataOwner         geo.Owner
	// ControlSites restricts a PlaceRegional control fleet to specific
	// sites (nil = everywhere). Hubs runs HTTPS only in the western U.S.
	// and Europe (§4.2).
	ControlSites []string
	// WebData is true when avatar state rides HTTPS and voice rides
	// RTP/RTCP (Mozilla Hubs).
	WebData bool
	// SameServerForColocated: AltspaceVR and Hubs assign co-located users
	// to the same data server; others load-balance them apart.
	SameServerForColocated bool
	// ControlHostname/DataHostname are reverse-DNS names (Worlds evidence
	// for channel separation).
	ControlHostname, DataHostname string

	// Traffic (§5, Table 3).
	Codec   *avatar.Codec
	Traffic TrafficModel

	// Viewport-adaptive optimization (§6.1): AltspaceVR only.
	ViewportAdaptive bool
	ViewportWidthDeg float64

	// TCPPriority gates UDP sends on control-channel TCP delivery (§8.1,
	// Worlds only).
	TCPPriority bool

	// Latency (§7, Table 4).
	Latency LatencyModel

	// Device cost model on Quest 2 (Figures 7-9).
	Cost device.CostModel

	// Game mode (§8).
	Game GameModel

	// Event capacity (§6.2).
	MaxEventUsers int
}

var profiles = map[Name]*Profile{
	AltspaceVR: {
		Name: AltspaceVR,
		Features: Features{
			Company: "Microsoft", ReleaseYear: 2015,
			Locomotion:    []string{"Walk", "Teleport"},
			PersonalSpace: true, Game: true, ShareScreen: true,
		},
		ControlPlacement: PlaceAnycast, ControlOwner: geo.OwnerMicrosoft,
		DataPlacement: PlaceWestOnly, DataOwner: geo.OwnerMicrosoft,
		SameServerForColocated: true,
		Codec:                  avatar.AltspaceVRCodec,
		Traffic: TrafficModel{
			SyncDownBps:    26_000,
			HeartbeatUpBps: 26_000,
			ReportInterval: 10 * time.Second, ReportUpBytes: 2100, ReportDownBytes: 6200,
			VoiceDuty:         0.12,
			InitDownloadBytes: 18 << 20, // 10-30 MB at initialization
		},
		ViewportAdaptive: true, ViewportWidthDeg: 150,
		Latency: LatencyModel{
			SenderMs: 24.5, SenderJitterMs: 5,
			ReceiverMs: 30, ReceiverJitterMs: 8,
			ServerMs: 66, ServerJitterMs: 11,
			PerUserServerMs: 3.5, PerUserReceiverMs: 2.5,
		},
		Cost: device.CostModel{
			BaseCPUms: 6, PerAvatarCPUms: 0.33,
			BaseGPUms: 7, PerAvatarGPUms: 0.70,
			BaseMemMB: 1100, PerAvatarMemMB: 10,
			Res:                  device.Resolution{W: 2016, H: 2224},
			BatteryBasePctPerMin: 0.3,
		},
		Game:          GameModel{Name: "Q&A Trivia", UpBps: 8_000, DownBps: 12_000},
		MaxEventUsers: 50,
	},

	Worlds: {
		Name: Worlds,
		Features: Features{
			Company: "Meta", ReleaseYear: 2021,
			Locomotion: []string{"Walk", "Teleport"},
			FacialExpr: true, PersonalSpace: true, Game: true,
		},
		ControlPlacement: PlaceRegional, ControlOwner: geo.OwnerMeta,
		DataPlacement: PlaceRegional, DataOwner: geo.OwnerMeta,
		ControlHostname: "edge-star-shv-01-iad3.facebook.com",
		DataHostname:    "oculus-verts-shv-01-iad3.facebook.com",
		Codec:           avatar.WorldsCodec,
		Traffic: TrafficModel{
			SyncDownBps:     100_000,
			HeartbeatUpBps:  12_000,
			TelemetryUpBps:  370_000,
			ReportInterval:  10 * time.Second,
			ReportUpBytes:   37_500, // ~300 kbit/s spikes, uplink only
			ReportDownBytes: 300,
			VoiceDuty:       0.12,
			// "Preparing for Visitors" downloads ~5 MB per launch.
			InitDownloadBytes: 5 << 20,
		},
		TCPPriority: true,
		Latency: LatencyModel{
			SenderMs: 26.2, SenderJitterMs: 4.5,
			ReceiverMs: 42, ReceiverJitterMs: 9,
			ServerMs: 38, ServerJitterMs: 10,
			PerUserServerMs: 3.0, PerUserReceiverMs: 4.5,
		},
		Cost: device.CostModel{
			BaseCPUms: 9, PerAvatarCPUms: 0.25,
			BaseGPUms: 11.2, PerAvatarGPUms: 0.32,
			BaseMemMB: 1840, PerAvatarMemMB: 11,
			Res:                  device.Resolution{W: 1440, H: 1584},
			BatteryBasePctPerMin: 0.35,
		},
		// Additional game-stream rates on top of the avatar/telemetry
		// baseline; totals land near the paper's ~1.2/0.7 Mbps (§8.1).
		Game:          GameModel{Name: "Arena Clash", UpBps: 500_000, DownBps: 290_000},
		MaxEventUsers: 16, // recommended 8-12, observed cap 16 (§6.2)
	},

	Hubs: {
		Name: Hubs,
		Features: Features{
			Company: "Mozilla", ReleaseYear: 2018,
			Locomotion:  []string{"Walk", "Fly", "Teleport"},
			ShareScreen: true,
		},
		ControlPlacement: PlaceRegional, ControlOwner: geo.OwnerAWS,
		ControlSites:  []string{SiteUSWest, SiteEurope},
		DataPlacement: PlaceWestOnly, DataOwner: geo.OwnerAWS,
		WebData:                true,
		SameServerForColocated: true,
		Codec:                  avatar.HubsCodec,
		Traffic: TrafficModel{
			SyncDownBps:    3_000,
			HeartbeatUpBps: 3_000,
			VoiceDuty:      0.12,
			// No install: ~20 MB downloaded at every join (the §5.2 caching
			// bug we "reported to Mozilla").
			JoinDownloadBytes: 20 << 20,
		},
		Latency: LatencyModel{
			SenderMs: 42.4, SenderJitterMs: 6,
			ReceiverMs: 52, ReceiverJitterMs: 7,
			ServerMs: 50, ServerJitterMs: 8,
			PerUserServerMs: 4.0, PerUserReceiverMs: 5.5,
		},
		Cost: device.CostModel{
			BaseCPUms: 9, PerAvatarCPUms: 0.5, QuadCPUms: 0.055,
			BaseGPUms: 6, PerAvatarGPUms: 0.9,
			BaseMemMB: 1200, PerAvatarMemMB: 10,
			Res:                  device.Resolution{W: 1216, H: 1344},
			BatteryBasePctPerMin: 0.4, // browser overhead
		},
		Game:          GameModel{}, // Hubs has no games (Table 1)
		MaxEventUsers: 30,
	},

	RecRoom: {
		Name: RecRoom,
		Features: Features{
			Company: "Rec Room", ReleaseYear: 2016,
			Locomotion: []string{"Walk", "Jump", "Teleport"},
			FacialExpr: true, PersonalSpace: true, Game: true, Shopping: true, NFT: true,
		},
		ControlPlacement: PlaceAnycast, ControlOwner: geo.OwnerANS,
		DataPlacement: PlaceAnycast, DataOwner: geo.OwnerCloudflare,
		Codec: avatar.RecRoomCodec,
		Traffic: TrafficModel{
			SyncDownBps:    7_000,
			HeartbeatUpBps: 7_000,
			VoiceDuty:      0.12,
			// Pre-downloaded during install: the 1.41 GB app store size.
		},
		Latency: LatencyModel{
			SenderMs: 25.9, SenderJitterMs: 8,
			ReceiverMs: 33, ReceiverJitterMs: 7,
			ServerMs: 28, ServerJitterMs: 6,
			PerUserServerMs: 2.5, PerUserReceiverMs: 3.5,
		},
		Cost: device.CostModel{
			BaseCPUms: 6, PerAvatarCPUms: 0.86,
			BaseGPUms: 5.5, PerAvatarGPUms: 0.30,
			BaseMemMB: 1300, PerAvatarMemMB: 10,
			Res:                  device.Resolution{W: 1224, H: 1346},
			BatteryBasePctPerMin: 0.3,
		},
		// Additional stream on top of baseline: Laser Tag totals ~75 kbit/s.
		Game:          GameModel{Name: "Laser Tag", UpBps: 30_000, DownBps: 25_000},
		MaxEventUsers: 40,
	},

	VRChat: {
		Name: VRChat,
		Features: Features{
			Company: "VRChat", ReleaseYear: 2017,
			Locomotion: []string{"Walk", "Jump", "Teleport"},
			FacialExpr: true, PersonalSpace: true, Game: true,
		},
		ControlPlacement: PlaceRegional, ControlOwner: geo.OwnerAWS,
		DataPlacement: PlaceAnycast, DataOwner: geo.OwnerCloudflare,
		Codec: avatar.VRChatCodec,
		Traffic: TrafficModel{
			SyncDownBps:       4_000,
			HeartbeatUpBps:    4_000,
			VoiceDuty:         0.12,
			InitDownloadBytes: 22 << 20, // 10-30 MB at initialization
		},
		Latency: LatencyModel{
			SenderMs: 27.3, SenderJitterMs: 6,
			ReceiverMs: 31, ReceiverJitterMs: 6,
			ServerMs: 32, ServerJitterMs: 9,
			PerUserServerMs: 2.5, PerUserReceiverMs: 3.5,
		},
		Cost: device.CostModel{
			BaseCPUms: 7.5, PerAvatarCPUms: 0.70,
			BaseGPUms: 5, PerAvatarGPUms: 0.35,
			BaseMemMB: 1250, PerAvatarMemMB: 10,
			Res:                  device.Resolution{W: 1440, H: 1584},
			BatteryBasePctPerMin: 0.3,
		},
		// Additional stream on top of baseline: Voxel Shooting ~40 kbit/s.
		Game:          GameModel{Name: "Voxel Shooting", UpBps: 8_000, DownBps: 8_000},
		MaxEventUsers: 40,
	},
}

// Get returns the profile for a platform; it panics on unknown names (a
// profile lookup failure is always a programming error).
func Get(n Name) *Profile {
	p, ok := profiles[n]
	if !ok {
		panic("platform: unknown platform " + string(n))
	}
	return p
}

// All returns the five platforms in the paper's canonical order.
func All() []*Profile {
	return []*Profile{
		profiles[AltspaceVR], profiles[RecRoom], profiles[VRChat],
		profiles[Hubs], profiles[Worlds],
	}
}
