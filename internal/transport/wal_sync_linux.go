//go:build linux

package transport

import (
	"os"
	"syscall"
)

// dataSync makes f's data durable with fdatasync(2), which syncs of the
// metadata only what reading the data back needs (wal.go's file comment
// says why that is enough). f is a regular file, which Go never leaves in
// non-blocking mode, so Fd changes nothing.
func dataSync(f *os.File) error {
	for {
		err := syscall.Fdatasync(int(f.Fd()))
		if err == nil {
			return nil
		}
		if err != syscall.EINTR {
			return &os.PathError{Op: "fdatasync", Path: f.Name(), Err: err}
		}
	}
}
