package bedrock

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"github.com/hep-on-hpc/hepnos-go/internal/asyncengine"
)

// ClientProcessConfig is the client-side counterpart of ProcessConfig: the
// JSON document a client application loads to connect to a service —
// the "config.json" of hepnos::DataStore::connect. It carries the group
// file location plus the client's tuning knobs, including the AsyncEngine
// pool sizing of §II-D, so async concurrency is deployment configuration
// rather than code.
//
//	{
//	  "group_file": "hepnos.group.json",
//	  "async": {"pools": [
//	    {"name": "rpc", "xstreams": 8, "max_queue": 128},
//	    {"name": "prefetch", "xstreams": 2, "max_queue": 16},
//	    {"name": "ingest", "xstreams": 4, "max_queue": 8}
//	  ]},
//	  "resilience": {"max_retries": 6}
//	}
type ClientProcessConfig struct {
	// GroupFile locates the service descriptor written at deployment.
	GroupFile string `json:"group_file,omitempty"`
	// Address is the client's own endpoint address (empty: automatic).
	Address string `json:"address,omitempty"`
	// EagerLimit overrides the RPC-inline threshold for batch transfers.
	EagerLimit int `json:"eager_limit,omitempty"`
	// Placement names the key placement strategy ("modulo" or "jump").
	Placement string `json:"placement,omitempty"`
	// Async sizes the client's AsyncEngine pools; nil uses the defaults.
	Async *asyncengine.Config `json:"async,omitempty"`
	// Resilience attaches a retry/backoff/breaker policy to client RPCs.
	Resilience *ResilienceConfig `json:"resilience,omitempty"`
	// Obs tunes the client's observability layer; nil keeps the defaults
	// (tracing on, default span buffer).
	Obs *ObsConfig `json:"obs,omitempty"`
	// MinGroupEpoch rejects group files older than this membership epoch —
	// the guard against connecting through a stale view after a rescale or
	// rejoin changed the deployment.
	MinGroupEpoch uint64 `json:"min_group_epoch,omitempty"`
	// Health tunes the client's failure detector; nil keeps the defaults
	// (heartbeats on when RF > 1).
	Health *HealthConfig `json:"health,omitempty"`
	// Tenant is the QoS identity this client's traffic is attributed to
	// on QoS-enabled servers (empty: the shared default tenant).
	Tenant string `json:"tenant,omitempty"`
}

// HealthConfig is the JSON form of the client failure-detector knobs.
type HealthConfig struct {
	// Disabled turns the heartbeat prober off (health then learns about
	// dead servers only from circuit-breaker trips).
	Disabled bool `json:"disabled,omitempty"`
	// ProbeIntervalMS is the heartbeat period in milliseconds (default 500).
	ProbeIntervalMS int `json:"probe_interval_ms,omitempty"`
	// SuspectAfter / DeadAfter are the consecutive-failure thresholds of
	// the health state machine (defaults 1 and 3).
	SuspectAfter int `json:"suspect_after,omitempty"`
	DeadAfter    int `json:"dead_after,omitempty"`
}

// ParseClientConfig decodes a client JSON document, rejecting unknown
// fields so typos fail loudly.
func ParseClientConfig(data []byte) (ClientProcessConfig, error) {
	var c ClientProcessConfig
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return ClientProcessConfig{}, fmt.Errorf("bedrock: parse client config: %w", err)
	}
	return c, nil
}

// ReadClientConfig loads a client JSON document from disk.
func ReadClientConfig(path string) (ClientProcessConfig, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return ClientProcessConfig{}, fmt.Errorf("bedrock: read client config: %w", err)
	}
	return ParseClientConfig(data)
}
