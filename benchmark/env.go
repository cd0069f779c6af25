package main

import (
	"fmt"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
)

// envRecord is carried by every output: a number without it cannot be
// compared with another.
type envRecord struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GitCommit  string  `json:"git_commit"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Scale      float64 `json:"scale"`
	Clients    int     `json:"clients"`
	MemtableMB int     `json:"memtable_mib"`
	CacheMB    int     `json:"block_cache_mib"`
	SyncWrites bool    `json:"sync_writes"`
	TempDir    string  `json:"temp_dir"`
	TempDirFS  string  `json:"temp_dir_fs"`
}

func environment(cfg *runConfig) envRecord {
	return envRecord{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitCommit:  gitCommit(),
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Scale:      cfg.scale,
		Clients:    cfg.clients,
		MemtableMB: memtableMB,
		CacheMB:    blockCacheMB,
		SyncWrites: false,
		TempDir:    cfg.tmp,
		TempDirFS:  fsName(cfg.tmp),
	}
}

// gitCommit is best effort: the driver's checkout is not a repository.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// fsName names the filesystem under dir by its statfs magic number.
func fsName(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53:     "ext4",
		0x01021994: "tmpfs",
		0x794c7630: "overlayfs",
		0x58465342: "xfs",
		0x9123683E: "btrfs",
		0x6969:     "nfs",
	}
	if n, ok := names[int64(st.Type)]; ok {
		return n
	}
	return fmt.Sprintf("%#x", st.Type)
}
