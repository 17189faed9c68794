//go:build linux && (amd64 || arm64)

package netio

import (
	"runtime"
	"syscall"
	"testing"
	"unsafe"
)

// onLockedThread runs fn on a goroutine locked to its thread for good,
// so whatever fn does to the thread's affinity dies with the thread.
func onLockedThread(fn func()) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		runtime.LockOSThread()
		fn()
	}()
	<-done
}

// threadCPUs lists the calling thread's allowed CPU ids in order.
func threadCPUs(t *testing.T) []int {
	t.Helper()
	var mask cpuMask
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0,
		unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		t.Fatalf("sched_getaffinity: %v", errno)
	}
	var cpus []int
	for cpu := 0; cpu < len(mask)*64; cpu++ {
		if mask[cpu/64]>>(uint(cpu)%64)&1 == 1 {
			cpus = append(cpus, cpu)
		}
	}
	return cpus
}

func TestPinThreadPinsToAllowedCPUs(t *testing.T) {
	var allowed []int
	onLockedThread(func() { allowed = threadCPUs(t) })
	if len(allowed) < 2 {
		t.Skipf("only CPUs %v allowed: nothing to tell an id from an index", allowed)
	}
	// Shard i lands on the (i mod n)-th allowed CPU and nowhere else.
	for i := 0; i <= len(allowed); i++ {
		onLockedThread(func() {
			cpu, err := PinThread(i)
			if want := allowed[i%len(allowed)]; err != nil || cpu != want {
				t.Errorf("PinThread(%d) = %d, %v; want CPU %d of %v", i, cpu, err, want, allowed)
			}
			if got := threadCPUs(t); len(got) != 1 || got[0] != cpu {
				t.Errorf("PinThread(%d): thread allowed on %v, want only %d", i, got, cpu)
			}
		})
	}
	// A daemon confined to CPUs that do not start at 0 (taskset -c 2,3, a
	// cpuset): shard 0 must take the first CPU of that set, not CPU 0.
	onLockedThread(func() {
		highest := allowed[len(allowed)-1]
		var mask cpuMask
		mask[highest/64] = 1 << (uint(highest) % 64)
		if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0,
			unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
			t.Fatalf("narrowing the test thread to CPU %d: %v", highest, errno)
		}
		for i := 0; i < 2; i++ {
			if cpu, err := PinThread(i); err != nil || cpu != highest {
				t.Errorf("confined to CPU %d: PinThread(%d) = %d, %v", highest, i, cpu, err)
			}
		}
	})
}
