package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// stampKey is the reserved top-level key under which a baseline records
// the machine and build it was measured on. Benchmark names start with
// "Benchmark", so no benchmark can take it.
const stampKey = "stamp"

// stamp names the machine and build a baseline was measured on, with the
// JSON field names of perfbench's result stamp. Timings taken on
// different machines are not comparable; -compare warns when the two
// files' machine fields differ.
type stamp struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu_model"`
	Go         string `json:"go_version"`
	Commit     string `json:"git_commit"`
}

// machine is the stamp without the commit: the fields that must match for
// two baselines' timings to be compared.
func (s stamp) machine() stamp {
	s.Commit = ""
	return s
}

func currentStamp() stamp {
	return stamp{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
		Commit:     buildCommit(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// buildCommit is the VCS revision the go command stamped into the binary,
// with "+dirty" for a modified tree. `go run` stamps one only with
// -buildvcs=true, which the Makefile passes; a build outside a git
// checkout has none.
func buildCommit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}
