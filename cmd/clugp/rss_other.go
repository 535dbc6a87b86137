//go:build !unix

package main

// maxRSS is unavailable where getrusage is.
func maxRSS() (int64, bool) { return 0, false }
