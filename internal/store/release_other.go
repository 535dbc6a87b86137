//go:build !linux

package store

// releaseMapped is a no-op where the standard library has no madvise: the
// mapping's pages stay resident until Close unmaps it.
func releaseMapped(b []byte) {}
