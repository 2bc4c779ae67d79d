package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by nearest rank (0 for none).
// xs is sorted in place.
func quantile[T int64 | float64](xs []T, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	i := int(q*float64(len(xs))+0.5) - 1
	return float64(xs[min(max(i, 0), len(xs)-1)])
}

// timeSetups runs setup(j) for each of n inputs and returns the median
// duration in seconds, so a one-off page-fault storm or GC cycle does not
// decide setup_s.
func timeSetups(n int, setup func(j int) error) (float64, error) {
	ds := make([]float64, 0, n)
	for j := 0; j < n; j++ {
		t0 := time.Now()
		if err := setup(j); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(t0).Seconds())
	}
	return quantile(ds, 0.5), nil
}

// subSeed derives the seed of input j of a run from the run's seed
// (SplitMix64 finalizer), so runs with nearby seeds share no input.
func subSeed(seed int64, j int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(j+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// memEdge is a runtime.MemStats reading taken between calls into the
// program, never around a timed one.
type memEdge struct {
	mallocs, bytes uint64
	numGC          uint32
	pauseNS        uint64
}

func readMem() memEdge {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memEdge{mallocs: ms.Mallocs, bytes: ms.TotalAlloc, numGC: ms.NumGC, pauseNS: ms.PauseTotalNs}
}

// peakRSSMB is the process's peak resident set size from getrusage.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// stamp identifies the build and machine a result came from.
type stamp struct {
	Commit     string `json:"commit"`
	Modified   bool   `json:"modified"`
	Binary     string `json:"binary_sha256"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
}

func newStamp(workload string, seed int64, seconds int, traced bool) stamp {
	s := stamp{
		Commit:     "unknown",
		Binary:     binaryHash(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Workload:   workload,
		Seed:       seed,
		Seconds:    seconds,
		Trace:      traced,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				s.Commit = kv.Value
			case "vcs.modified":
				s.Modified = kv.Value == "true"
			}
		}
	}
	return s
}

// binaryHash is a short content hash of the running executable; it keys
// the cross-run determinism record to one build of the program.
func binaryHash() string {
	path, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	f, err := os.Open(path)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
