package main

import (
	"fmt"
	"runtime"
	"syscall"
)

// environment is recorded with every result so runs on different boxes or
// filesystems are never compared unknowingly.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	TempFS     string `json:"temp_fs"`
	Commit     string `json:"commit"`
}

func recordEnvironment(dir, commit string) environment {
	e := environment{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit,
		Kernel:     "unknown",
		TempFS:     "unknown",
	}
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		e.Kernel = cstr(u.Sysname[:]) + " " + cstr(u.Release[:]) + " " + cstr(u.Machine[:])
	}
	var st syscall.Statfs_t
	if syscall.Statfs(dir, &st) == nil {
		e.TempFS = fsName(int64(st.Type))
	}
	return e
}

func cstr[T int8 | uint8](b []T) string {
	out := make([]byte, 0, len(b))
	for _, c := range b {
		if c == 0 {
			break
		}
		out = append(out, byte(c))
	}
	return string(out)
}

// fsName names the common Linux filesystem magic numbers (statfs(2)).
func fsName(magic int64) string {
	switch magic {
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x01021994:
		return "tmpfs"
	case 0x794C7630:
		return "overlayfs"
	case 0x65735546:
		return "fuse"
	}
	return fmt.Sprintf("0x%x", magic)
}
