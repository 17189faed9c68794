//go:build linux && (amd64 || arm64)

package netio

import (
	"fmt"
	"math/bits"
	"syscall"
	"unsafe"
)

// cpuMask is a kernel CPU affinity mask: 1024 CPUs, the size of glibc's
// cpu_set_t.
type cpuMask [16]uint64

// PinThread binds the calling OS thread to one of the CPUs its affinity
// mask already allows — the (i mod n)-th of those n, in id order — and
// returns that CPU's id. The mask is what taskset, a cpuset cgroup or a
// container runtime confined the process to, so shard workers spread
// over exactly the CPUs the operator gave the daemon and never leave
// them; the ids need not start at 0 or be contiguous. Callers must hold
// the thread first with runtime.LockOSThread, or the Go scheduler will
// migrate the goroutine off the pinned thread.
func PinThread(i int) (int, error) {
	if i < 0 {
		return 0, fmt.Errorf("netio: pin index %d is negative", i)
	}
	var mask cpuMask
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0,
		unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return 0, fmt.Errorf("netio: sched_getaffinity: %v", errno)
	}
	n := 0
	for _, w := range mask {
		n += bits.OnesCount64(w)
	}
	if n == 0 {
		return 0, fmt.Errorf("netio: empty affinity mask")
	}
	// Walk to the (i mod n)-th set bit; n > 0 bounds the walk.
	cpu := 0
	for k := i % n; ; cpu++ {
		if mask[cpu/64]>>(uint(cpu)%64)&1 == 1 {
			if k == 0 {
				break
			}
			k--
		}
	}
	mask = cpuMask{}
	mask[cpu/64] = 1 << (uint(cpu) % 64)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0,
		unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return cpu, fmt.Errorf("netio: sched_setaffinity(cpu=%d): %v", cpu, errno)
	}
	return cpu, nil
}
