// Package yokan is the Go analog of the Yokan component of the Mochi suite:
// a remotely-accessible, single-node key-value storage service (§II-B of
// the paper). A Yokan provider manages one or more named databases, each
// backed by a pluggable backend, and serves put/get/exists/erase/list RPCs
// over the fabric, using bulk transfer for large values and batches.
//
// Two backends are provided, the paper's two evaluated configurations:
//
//   - "map": an in-memory ordered store (the paper's std::map backend),
//     implemented with a skip list.
//   - "lsm": a persistent log-structured merge tree standing in for
//     RocksDB: write-ahead log, skip-list memtable, sorted-block SSTables
//     with bloom filters, and size-tiered compaction.
package yokan

import (
	"fmt"

	"github.com/hep-on-hpc/hepnos-go/internal/xerr"
)

// Errors shared by backends and clients. They are xerr sentinels, so they
// survive the fabric's typed reply frames: a client-side
// errors.Is(err, ErrKeyNotFound) is true whether the miss happened in-process
// or on a remote provider. ErrDBClosed classifies as unavailable — a closed
// database is a per-replica condition that failover may route around —
// while the two not_found errors are definitive answers.
var (
	ErrKeyNotFound = xerr.Sentinel("yokan/key_not_found", xerr.ClassNotFound, "yokan: key not found")
	ErrDBClosed    = xerr.Sentinel("yokan/db_closed", xerr.ClassUnavailable, "yokan: database is closed")
	ErrNoSuchDB    = xerr.Sentinel("yokan/no_such_db", xerr.ClassNotFound, "yokan: no such database")
)

// KV is one key-value pair.
type KV struct {
	Key []byte
	Val []byte
}

// Backend is a single ordered key-value database. Implementations must be
// safe for concurrent use; iteration order is ascending lexicographic byte
// order (HEPnOS's key design depends on it).
type Backend interface {
	// Name returns the database name.
	Name() string
	// Type returns the backend type ("map" or "lsm").
	Type() string
	// Put stores a key-value pair, replacing any existing value.
	Put(key, val []byte) error
	// GetOrPut atomically returns the existing value for key, or stores
	// val if the key is absent. It reports the winning value and whether
	// the insert happened. HEPnOS uses it for dataset-UUID agreement
	// between concurrent creators.
	GetOrPut(key, val []byte) (winner []byte, inserted bool, err error)
	// Get returns the value for key, or ErrKeyNotFound.
	Get(key []byte) ([]byte, error)
	// Exists reports whether the key is present.
	Exists(key []byte) (bool, error)
	// Erase removes the key; removing an absent key is not an error and
	// reports false.
	Erase(key []byte) (bool, error)
	// ListKeys returns up to max keys strictly greater than from (or all
	// keys from the start when from is empty) that begin with prefix.
	ListKeys(from, prefix []byte, max int) ([][]byte, error)
	// ListKeyVals is ListKeys returning the values too.
	ListKeyVals(from, prefix []byte, max int) ([]KV, error)
	// Count returns the number of live keys.
	Count() (int, error)
	// Close releases resources. Operations after Close return ErrDBClosed.
	Close() error
}

// DBConfig describes one database in a provider configuration (the shape
// embedded in Bedrock JSON).
type DBConfig struct {
	Name string `json:"name"`
	// Type selects the backend: "map" (default) or "lsm".
	Type string `json:"type"`
	// Path is the storage directory for persistent backends.
	Path string `json:"path"`
}

// StorageEnv is the shared storage infrastructure a server process hands
// to every LSM database it opens: one block cache (so hot databases can
// use the whole budget), one background executor, and the tuned options.
// A nil StorageEnv, or any zero field of one, falls back to the
// per-database defaults, so standalone opens keep working.
type StorageEnv struct {
	Cache     *BlockCache
	Compactor *Compactor
	Options   LSMOptions
}

// OpenBackend constructs the backend described by cfg with defaults.
func OpenBackend(cfg DBConfig) (Backend, error) {
	return OpenBackendEnv(cfg, nil)
}

// OpenBackendEnv constructs the backend described by cfg, wiring LSM
// databases into the shared storage environment when one is provided.
func OpenBackendEnv(cfg DBConfig, env *StorageEnv) (Backend, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("yokan: database with empty name")
	}
	switch cfg.Type {
	case "", "map":
		return newMapDB(cfg.Name), nil
	case "lsm":
		if cfg.Path == "" {
			return nil, fmt.Errorf("yokan: lsm database %q needs a path", cfg.Name)
		}
		var opts LSMOptions
		if env != nil {
			opts = env.Options
			opts.Cache = env.Cache
			opts.Compactor = env.Compactor
		}
		return openLSM(cfg.Name, cfg.Path, opts)
	default:
		return nil, fmt.Errorf("yokan: unknown backend type %q", cfg.Type)
	}
}

// clone returns a private copy of b (nil stays nil).
func clone(b []byte) []byte {
	if b == nil {
		return nil
	}
	return append([]byte(nil), b...)
}
