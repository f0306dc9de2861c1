package bench

import (
	"fmt"
	"os"
	"runtime"
	"strconv"
	"syscall"
	"unsafe"
)

// cpuMask is the kernel's cpu_set_t, sized for 1024 CPUs.
type cpuMask [16]uint64

// AllowedCPUs lists the CPUs the calling thread may run on.
func AllowedCPUs() ([]int, error) {
	var mask cpuMask
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return nil, fmt.Errorf("bench: sched_getaffinity: %w", errno)
	}
	var cpus []int
	for i := 0; i < len(mask)*64; i++ {
		if mask[i/64]&(1<<(i%64)) != 0 {
			cpus = append(cpus, i)
		}
	}
	return cpus, nil
}

// PinProcess confines the whole process to one CPU: every thread it has
// now, so every thread it starts later, and one P for the Go scheduler as
// if the process had been started on a one-CPU machine.
//
// The harness and the host each pin themselves, to different CPUs. On
// two shared cores that is what makes the numbers repeat: unpinned, the
// two processes migrate and wake each other across CPUs, and qps, p50 and
// p95 of single requests spread by 5 to 7 % from one 20 s window to the
// next; pinned, by 1 to 5 %.
func PinProcess(cpu int) error {
	var mask cpuMask
	mask[cpu/64] = 1 << (cpu % 64)
	// Twice: a thread cloned from a not yet pinned one during the first
	// pass is caught by the second.
	for pass := 0; pass < 2; pass++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		for _, task := range tasks {
			tid, err := strconv.Atoi(task.Name())
			if err != nil {
				continue
			}
			_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
			if errno != 0 && errno != syscall.ESRCH { // ESRCH: the thread has exited since ReadDir
				return fmt.Errorf("bench: sched_setaffinity(%d, cpu %d): %w", tid, cpu, errno)
			}
		}
	}
	runtime.GOMAXPROCS(1)
	return nil
}
