package bedrock

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"github.com/hep-on-hpc/hepnos-go/internal/argo"

	"github.com/hep-on-hpc/hepnos-go/internal/fabric"
	"github.com/hep-on-hpc/hepnos-go/internal/yokan"
)

// Database naming convention: HEPnOS databases are named "<role>_<index>".
// The connect step classifies databases into container levels by this
// prefix, playing the role of the database tags in real Bedrock configs.
const (
	RoleDatasets = "datasets"
	RoleRuns     = "runs"
	RoleSubruns  = "subruns"
	RoleEvents   = "events"
	RoleProducts = "products"
)

// ServerDescriptor locates one server of a deployed service.
type ServerDescriptor struct {
	Address   string   `json:"address"`
	Providers []uint16 `json:"providers"`
}

// GroupFile is the connection document handed to clients — the analog of
// the SSG group file / connection JSON in DataStore::connect("config.json").
type GroupFile struct {
	Protocol string             `json:"protocol"`
	Servers  []ServerDescriptor `json:"servers"`
	// Epoch is a monotonically increasing membership-view version. It is
	// bumped whenever the deployment changes shape (deploy, rescale, a
	// server rejoining after death), letting clients detect and reject a
	// stale group file instead of silently connecting to an old view.
	Epoch uint64 `json:"epoch,omitempty"`
	// RF is the replication factor: every event/product key is written to
	// its primary database plus RF-1 replicas on distinct servers. 0 or 1
	// means no replication (pre-replication group files read as RF=1).
	RF int `json:"rf,omitempty"`
}

// ReplicationFactor returns the group's effective RF (at least 1).
func (g GroupFile) ReplicationFactor() int {
	if g.RF < 1 {
		return 1
	}
	return g.RF
}

// WriteGroupFile serializes the group to a JSON file.
func WriteGroupFile(path string, g GroupFile) error {
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// ReadGroupFile loads a group from a JSON file.
func ReadGroupFile(path string) (GroupFile, error) {
	var g GroupFile
	data, err := os.ReadFile(path)
	if err != nil {
		return g, fmt.Errorf("bedrock: read group file: %w", err)
	}
	if err := json.Unmarshal(data, &g); err != nil {
		return g, fmt.Errorf("bedrock: parse group file: %w", err)
	}
	if len(g.Servers) == 0 {
		return g, fmt.Errorf("bedrock: group file lists no servers")
	}
	return g, nil
}

// DeploySpec describes a whole HEPnOS service deployment, defaulting to the
// shape used in the paper's evaluation (§IV-D): per server process, 16
// providers each pinned to an execution stream, together serving 8 event
// and 8 product databases; plus dataset/run/subrun databases.
type DeploySpec struct {
	// Servers is the number of server processes.
	Servers int
	// Scheme is "inproc" (default) or "tcp".
	Scheme string
	// ProvidersPerServer maps providers to execution streams 1:1 (paper: 16).
	ProvidersPerServer int
	// EventDBsPerServer and ProductDBsPerServer size the two hot database
	// sets (paper: 8 and 8).
	EventDBsPerServer   int
	ProductDBsPerServer int
	// DatasetDBs, RunDBs and SubrunDBs are service-wide totals, spread
	// round-robin over servers (defaults: 1, max(1,Servers), max(1,Servers)).
	DatasetDBs int
	RunDBs     int
	SubrunDBs  int
	// Backend is "map" (default) or "lsm".
	Backend string
	// PathBase is the storage root for persistent backends.
	PathBase string
	// RPCXStreams per server (paper: 16; default: ProvidersPerServer).
	RPCXStreams int
	// RF is the replication factor recorded in the group file (see
	// GroupFile.RF). Default 1: no replication. RF > Servers is an error.
	RF int
	// PinProviders gives every provider its own Argobots pool and
	// execution stream, the paper's §IV-D mapping ("each mapped to its
	// execution stream to avoid competing for access by multiple
	// execution streams"). Off, all providers share the default pool.
	PinProviders bool
	// NamePrefix distinguishes concurrent inproc deployments.
	NamePrefix string
	// QoS, when non-nil, is copied into every server's process config:
	// each server runs the same multi-tenant front-door policy.
	QoS *QoSConfig
	// Storage, when non-nil, is copied into every server's process config:
	// each server runs the same storage-tier tuning (block cache size,
	// memtable size, WAL durability). Only meaningful with Backend "lsm".
	Storage *StorageConfig
}

func (s *DeploySpec) applyDefaults() {
	if s.Servers <= 0 {
		s.Servers = 1
	}
	if s.Scheme == "" {
		s.Scheme = "inproc"
	}
	if s.ProvidersPerServer <= 0 {
		s.ProvidersPerServer = 4
	}
	if s.EventDBsPerServer <= 0 {
		s.EventDBsPerServer = 8
	}
	if s.ProductDBsPerServer <= 0 {
		s.ProductDBsPerServer = 8
	}
	if s.DatasetDBs <= 0 {
		// A replicated deployment needs at least RF dataset databases:
		// they are spread round-robin over distinct servers, and with
		// fewer than RF of them the dataset directory would keep a
		// single point of failure no replica walk can route around.
		s.DatasetDBs = 1
		if s.RF > 1 {
			s.DatasetDBs = s.RF
		}
	}
	if s.RunDBs <= 0 {
		s.RunDBs = s.Servers
	}
	if s.SubrunDBs <= 0 {
		s.SubrunDBs = s.Servers
	}
	if s.Backend == "" {
		s.Backend = "map"
	}
	if s.RPCXStreams <= 0 {
		s.RPCXStreams = s.ProvidersPerServer
	}
	if s.NamePrefix == "" {
		s.NamePrefix = "hepnos"
	}
}

// Deployment is a set of running servers plus the group file describing
// them.
type Deployment struct {
	Servers []*Server
	Group   GroupFile
}

// Shutdown stops all servers.
func (d *Deployment) Shutdown() {
	for _, s := range d.Servers {
		s.Shutdown()
	}
}

// Deploy boots a full service in this process.
func Deploy(spec DeploySpec) (*Deployment, error) {
	spec.applyDefaults()
	if spec.Backend == "lsm" && spec.PathBase == "" {
		return nil, fmt.Errorf("bedrock: lsm deployment needs PathBase")
	}
	if spec.RF > spec.Servers {
		return nil, fmt.Errorf("bedrock: RF %d exceeds server count %d", spec.RF, spec.Servers)
	}
	configs, err := BuildConfigs(spec)
	if err != nil {
		return nil, err
	}
	rf := spec.RF
	if rf < 1 {
		rf = 1
	}
	d := &Deployment{Group: GroupFile{Protocol: spec.Scheme, Epoch: 1, RF: rf}}
	for _, cfg := range configs {
		srv, err := Boot(cfg)
		if err != nil {
			d.Shutdown()
			return nil, err
		}
		d.Servers = append(d.Servers, srv)
		d.Group.Servers = append(d.Group.Servers, srv.Descriptor())
	}
	d.syncEpoch()
	return d, nil
}

// BumpEpoch advances the deployment's membership epoch — called when the
// view changes after the initial deploy (rescale, a dead server rejoining)
// — and pushes the new value to every server so their admin health RPC
// reports it. Returns the new epoch.
func (d *Deployment) BumpEpoch() uint64 {
	d.Group.Epoch++
	d.syncEpoch()
	return d.Group.Epoch
}

func (d *Deployment) syncEpoch() {
	for _, s := range d.Servers {
		s.setEpoch(d.Group.Epoch)
	}
}

// BuildConfigs produces the per-process Bedrock configurations for a spec
// without booting them (used by cmd/hepnos-server to print or boot one
// rank's config).
func BuildConfigs(spec DeploySpec) ([]ProcessConfig, error) {
	spec.applyDefaults()
	var out []ProcessConfig
	for srv := 0; srv < spec.Servers; srv++ {
		var addr string
		switch spec.Scheme {
		case "inproc":
			addr = fmt.Sprintf("inproc://%s-server-%d", spec.NamePrefix, srv)
		case "tcp":
			addr = "tcp://127.0.0.1:0"
		default:
			return nil, fmt.Errorf("bedrock: unknown scheme %q", spec.Scheme)
		}
		cfg := ProcessConfig{
			Margo:   MargoConfig{Address: addr, RPCXStreams: spec.RPCXStreams, QoS: spec.QoS},
			Storage: spec.Storage,
		}
		if spec.PinProviders {
			// One pool + one xstream per provider, exactly the paper's
			// provider-to-stream pinning.
			for p := 0; p < spec.ProvidersPerServer; p++ {
				cfg.Margo.Argobots.Pools = append(cfg.Margo.Argobots.Pools,
					argo.PoolConfig{Name: fmt.Sprintf("pool_%d", p), XStreams: 1})
			}
		}

		// Gather this server's databases: its share of the event/product
		// sets plus any round-robin-assigned dataset/run/subrun databases.
		var dbs []struct {
			role string
			idx  int
		}
		for i := 0; i < spec.EventDBsPerServer; i++ {
			dbs = append(dbs, struct {
				role string
				idx  int
			}{RoleEvents, srv*spec.EventDBsPerServer + i})
		}
		for i := 0; i < spec.ProductDBsPerServer; i++ {
			dbs = append(dbs, struct {
				role string
				idx  int
			}{RoleProducts, srv*spec.ProductDBsPerServer + i})
		}
		addGlobal := func(role string, total int) {
			for i := 0; i < total; i++ {
				if i%spec.Servers == srv {
					dbs = append(dbs, struct {
						role string
						idx  int
					}{role, i})
				}
			}
		}
		addGlobal(RoleDatasets, spec.DatasetDBs)
		addGlobal(RoleRuns, spec.RunDBs)
		addGlobal(RoleSubruns, spec.SubrunDBs)

		// Spread databases over providers round-robin; each provider is
		// the unit that a single execution stream serves.
		perProv := make([][]struct {
			role string
			idx  int
		}, spec.ProvidersPerServer)
		for i, db := range dbs {
			p := i % spec.ProvidersPerServer
			perProv[p] = append(perProv[p], db)
		}
		for p, assigned := range perProv {
			if len(assigned) == 0 {
				continue
			}
			pc := ProviderConfig{
				Type:       "yokan",
				Name:       fmt.Sprintf("yokan_%d_%d", srv, p),
				ProviderID: uint16(p),
			}
			if spec.PinProviders {
				pc.Pool = fmt.Sprintf("pool_%d", p)
			}
			for _, db := range assigned {
				name := fmt.Sprintf("%s_%d", db.role, db.idx)
				dbc := DatabaseConfig(name, spec.Backend, spec.PathBase, srv)
				pc.Config.Databases = append(pc.Config.Databases, dbc)
			}
			cfg.Providers = append(cfg.Providers, pc)
		}
		out = append(out, cfg)
	}
	return out, nil
}

// DatabaseConfig builds one database config following the deployment
// conventions (per-server subdirectory for persistent backends).
func DatabaseConfig(name, backend, pathBase string, server int) yokan.DBConfig {
	cfg := yokan.DBConfig{Name: name, Type: backend}
	if backend == "lsm" {
		cfg.Path = filepath.Join(pathBase, fmt.Sprintf("server-%d", server), name)
	}
	return cfg
}

// Addresses returns the deployed servers' addresses.
func (d *Deployment) Addresses() []fabric.Address {
	out := make([]fabric.Address, len(d.Servers))
	for i, s := range d.Servers {
		out[i] = s.Addr()
	}
	return out
}
