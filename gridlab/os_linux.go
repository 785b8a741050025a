package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// daemonSysProcAttr makes the kernel kill a daemon when the harness dies,
// however it dies, so no run can leave an orphan behind.
func daemonSysProcAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// procCPU reports the user+system CPU time pid has used, from
// /proc/<pid>/stat (fields 14 and 15, in USER_HZ = 100 ticks per second on
// every Linux ABI). A process that has gone away reads as 0.
func procCPU(pid int) time.Duration {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	// The command name (field 2) may hold spaces; fields resume after ')'.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0
	}
	fields := bytes.Fields(data[i+1:])
	if len(fields) < 13 {
		return 0
	}
	utime, _ := strconv.ParseInt(string(fields[11]), 10, 64)
	stime, _ := strconv.ParseInt(string(fields[12]), 10, 64)
	return time.Duration(utime+stime) * (time.Second / 100)
}

// fsType names the file system holding dir, for the summary: run-to-run
// spread on a tmpfs and on a disk with write-back are different things.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xEF53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x794C7630:
		return "overlayfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// procPeakRSS reports pid's peak resident set (VmHWM) in bytes. The
// ru_maxrss a parent gets from wait4 will not do: exec carries the forking
// process's own high-water mark into the child, so a small daemon would
// report the harness's size.
func procPeakRSS(pid int) int64 {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0
	}
	const key = "VmHWM:"
	i := bytes.Index(data, []byte(key))
	if i < 0 {
		return 0
	}
	fields := bytes.Fields(data[i+len(key):])
	if len(fields) == 0 {
		return 0
	}
	kb, _ := strconv.ParseInt(string(fields[0]), 10, 64)
	return kb << 10
}

// pinToOneCPU confines the harness, and through inheritance every daemon
// and compiler it starts, to a single CPU: the highest-numbered one it is
// allowed to run on. It sets the affinity of the calling thread and then
// re-executes the program, because only a fresh process image has all of
// its runtime's threads under the new mask; the second time round the mask
// already holds one CPU and the call returns.
//
// On the sandbox's two shared vCPUs, work that hops between CPUs pays for
// virtualised wake-ups and cold caches, and how much depends on what the
// neighbours are doing: unpinned, identical pipe_stream runs ranged over
// 54-84 MB/s at 19-29 CPU-s/GB; pinned, over 96-106 MB/s at 9.5-10.5.
func pinToOneCPU() error {
	var mask [16]uint64 // 1024 CPUs
	size := uintptr(len(mask) * 8)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, size, uintptr(unsafe.Pointer(&mask[0]))); errno != 0 {
		return fmt.Errorf("sched_getaffinity: %w", errno)
	}
	allowed, last := 0, -1
	for w, bits := range mask {
		for b := 0; b < 64; b++ {
			if bits&(1<<b) != 0 {
				allowed++
				last = w*64 + b
			}
		}
	}
	if allowed <= 1 {
		return nil
	}
	mask = [16]uint64{}
	mask[last/64] = 1 << (last % 64)
	runtime.LockOSThread()
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, size, uintptr(unsafe.Pointer(&mask[0]))); errno != 0 {
		return fmt.Errorf("sched_setaffinity: %w", errno)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	return syscall.Exec(exe, os.Args, os.Environ())
}

// onlineCPUs counts the machine's CPUs from /proc/stat; runtime.NumCPU
// would report the one CPU the harness pinned itself to.
func onlineCPUs() int {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return runtime.NumCPU()
	}
	n := 0
	for _, line := range bytes.Split(data, []byte("\n")) {
		if len(line) > 3 && bytes.HasPrefix(line, []byte("cpu")) && line[3] >= '0' && line[3] <= '9' {
			n++
		}
	}
	return max(n, 1)
}
