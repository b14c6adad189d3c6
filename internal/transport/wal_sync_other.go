//go:build !linux

package transport

import "os"

// dataSync is a full File.Sync on systems where the standard library offers
// no data-only sync.
func dataSync(f *os.File) error { return f.Sync() }
