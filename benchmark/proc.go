package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
)

// clockTick is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// fields. It is 100 on every Linux ABI Go runs on.
const clockTick = 100

// cpuTime is a process's cumulative CPU time in microseconds.
type cpuTime struct{ User, Sys float64 }

func (c cpuTime) total() float64           { return c.User + c.Sys }
func (c cpuTime) sub(o cpuTime) cpuTime    { return cpuTime{c.User - o.User, c.Sys - o.Sys} }
func (c cpuTime) plus(o cpuTime) cpuTime   { return cpuTime{c.User + o.User, c.Sys + o.Sys} }
func (c cpuTime) scaled(f float64) cpuTime { return cpuTime{c.User * f, c.Sys * f} }

// selfCPU reads this process's CPU time with getrusage (microsecond
// resolution).
func selfCPU() (cpuTime, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return cpuTime{}, fmt.Errorf("getrusage: %w", err)
	}
	us := func(tv syscall.Timeval) float64 { return float64(tv.Sec)*1e6 + float64(tv.Usec) }
	return cpuTime{User: us(ru.Utime), Sys: us(ru.Stime)}, nil
}

// procCPU reads another process's CPU time from /proc/<pid>/stat (10 ms
// resolution: fine over rounds that burn seconds of CPU).
func procCPU(pid int) (cpuTime, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return cpuTime{}, err
	}
	return parseProcStat(raw)
}

// parseProcStat extracts utime and stime (fields 14 and 15). The command
// name (field 2) may itself contain spaces and parentheses, so fields are
// counted from the last ')'.
func parseProcStat(raw []byte) (cpuTime, error) {
	i := bytes.LastIndexByte(raw, ')')
	if i < 0 {
		return cpuTime{}, fmt.Errorf("proc stat: no command field in %q", raw)
	}
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return cpuTime{}, fmt.Errorf("proc stat: %d fields after the command", len(f))
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return cpuTime{}, fmt.Errorf("proc stat: utime %q stime %q", f[11], f[12])
	}
	return cpuTime{User: ut * 1e6 / clockTick, Sys: st * 1e6 / clockTick}, nil
}

// procField reads one "Key:  value ..." line's first value from a /proc
// status-style file.
func procField(path, key string) (float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, key+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			return strconv.ParseFloat(f[0], 64)
		}
	}
	return 0, fmt.Errorf("%s: no %s line", path, key)
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM) in MiB.
func peakRSSMB(pid int) (float64, error) {
	kb, err := procField(fmt.Sprintf("/proc/%d/status", pid), "VmHWM")
	return kb / 1024, err
}

// selfWriteBytes is the byte count this process has passed to write-family
// system calls (wchar): what the client put on its sockets, give or take
// the benchmark's own few lines of output.
func selfWriteBytes() (float64, error) { return procField("/proc/self/io", "wchar") }

// environment describes where a result was measured; every result file
// carries one.
type environment struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPUModel   string  `json:"cpu_model"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"git_commit"`
	Load1      float64 `json:"load_1min_at_start"`
	ScratchFS  string  `json:"wal_dir_fs"`
	Link       string  `json:"link"`
	Prebuilt   string  `json:"prebuilt_binaries"`
}

func readEnvironment(scratchDir, prochlod string) environment {
	env := environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   "unknown",
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		ScratchFS:  fsType(scratchDir),
		Link:       "loopback",
		Prebuilt:   "benchmark (this binary), " + prochlod + " (cmd/prochlod); built before timing starts",
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if raw, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(raw)); len(f) > 0 {
			env.Load1, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	// The commit is whatever the go tool stamped into this binary; a
	// checkout that is not a git repository has none.
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				env.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					env.Commit += "+modified"
				}
			}
		}
	}
	return env
}

// fsType names the filesystem holding dir, which decides what an fsync
// costs the WAL.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext2/3/4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}
