package store

import "syscall"

// releaseMapped drops the pages of b from the process's resident set. b
// must be a slice of a mapping mmapFile made: read-only and MAP_SHARED, so
// the page cache keeps the file and a later read faults the same bytes
// back in. On a private or writable mapping MADV_DONTNEED would discard
// data. The advice is a hint, so its error is ignored.
func releaseMapped(b []byte) {
	if len(b) > 0 {
		syscall.Madvise(b, syscall.MADV_DONTNEED)
	}
}
