package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// machine identifies where a result was measured. Results from different
// machines are never compared.
type machine struct {
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	CPU         string `json:"cpu"`
	NProc       int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	Parallelism int    `json:"planner_parallelism"`
	GoVersion   string `json:"go_version"`
}

// provenance stamps a result with its machine, the code it measured and
// the inputs it ran.
type provenance struct {
	Machine  machine `json:"machine"`
	Commit   string  `json:"commit"`
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
}

// maxProcs is the most CPUs the benchmark uses: runs stay comparable on any
// machine with at least this many.
const maxProcs = 2

// pinProcs pins GOMAXPROCS, and with it the planner's parallelism, to
// min(nproc, maxProcs) and describes the machine.
func pinProcs() machine {
	procs := min(runtime.NumCPU(), maxProcs)
	runtime.GOMAXPROCS(procs)
	return machine{
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		CPU:         cpuModel(),
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  procs,
		Parallelism: procs,
		GoVersion:   runtime.Version(),
	}
}

// cpuModel reads the CPU model name on Linux; elsewhere it reports the
// architecture.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit names the code under test: the VCS revision stamped into the
// binary when it was built from a repository, otherwise a digest of the Go
// sources and module files under root.
func commit(root string) string {
	if info, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "-dirty"
			}
			return rev
		}
	}
	return "src-" + sourceDigest(root)
}

// sourceDigest hashes every .go and go.mod file under root, skipping
// hidden directories such as the build directory.
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, path := range files {
		rel, _ := filepath.Rel(root, path)
		io.WriteString(h, rel+"\x00")
		if f, err := os.Open(path); err == nil {
			io.Copy(h, f)
			f.Close()
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
