//go:build unix

package main

import (
	"runtime"
	"syscall"
)

// maxRSS returns the process's peak resident set size in bytes as the
// kernel accounts it (getrusage): every page the run held at its highest
// point, heap or not, with no sampler to miss a short-lived peak.
func maxRSS() (int64, bool) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, false
	}
	if runtime.GOOS == "darwin" || runtime.GOOS == "ios" {
		return int64(ru.Maxrss), true // bytes there, KiB elsewhere
	}
	return int64(ru.Maxrss) << 10, true
}
