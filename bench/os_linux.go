package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// clockTick is USER_HZ, the unit of the steal column of /proc/stat. It
// is 100 on every Linux platform Go supports.
const clockTick = 100

// procCPUSeconds returns the CPU time a process has used, all threads,
// user and system, from the process's CPU-time clock. The utime/stime
// fields of /proc/<pid>/stat would do on paper, but this kernel fills
// them by sampling at the timer tick: over a phase of a few seconds
// that is a binomial draw with a standard deviation of several percent,
// where the clock is the scheduler's own nanosecond count.
func procCPUSeconds(pid int) (float64, bool) {
	// clock_getcpuclockid(3): the clock of process pid is
	// (^pid << 3) | CPUCLOCK_SCHED.
	id := uintptr(int32(^pid)<<3 | 2)
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, false
	}
	return float64(ts.Sec) + float64(ts.Nsec)/1e9, true
}

// peakRSSMiB returns a process's VmHWM.
func peakRSSMiB(pid int) (float64, bool) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, false
			}
			return kb / 1024, true
		}
	}
	return 0, false
}

// cpuMask is a sched_setaffinity mask wide enough for 1024 CPUs.
type cpuMask [16]uint64

func getAffinity() (cpuMask, bool) {
	var m cpuMask
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(m), uintptr(unsafe.Pointer(&m)))
	return m, errno == 0
}

func setAffinity(m *cpuMask) error {
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(*m), uintptr(unsafe.Pointer(m))); errno != 0 {
		return errno
	}
	return nil
}

// allowedCPUs lists the CPUs this process may run on.
func allowedCPUs() []int {
	m, ok := getAffinity()
	if !ok {
		return nil
	}
	var cpus []int
	for i := 0; i < len(m)*64; i++ {
		if m[i/64]&(1<<(i%64)) != 0 {
			cpus = append(cpus, i)
		}
	}
	return cpus
}

// startOnCPU starts cmd confined to one CPU (cpu < 0: wherever). A
// child inherits the affinity of the thread that forks it, so the
// calling goroutine's thread is narrowed for the fork and widened again
// after it.
func startOnCPU(cmd *exec.Cmd, cpu int) error {
	old, ok := getAffinity()
	if cpu < 0 || !ok {
		return cmd.Start()
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var one cpuMask
	one[cpu/64] = 1 << (cpu % 64)
	if err := setAffinity(&one); err != nil {
		return cmd.Start()
	}
	err := cmd.Start()
	if rerr := setAffinity(&old); rerr != nil && err == nil {
		// The daemon runs, but this thread is stuck on one core: give up
		// rather than measure with a crippled generator.
		err = fmt.Errorf("restoring the generator's CPU affinity: %w", rerr)
	}
	return err
}

// sleepUntilDue blocks the calling thread for d. The open-loop sender
// uses it instead of time.Sleep: the Go runtime rounds the timers of an
// otherwise idle process to the millisecond (its epoll timeout), which
// at thousands of publishes a second is several whole intervals, while
// nanosleep wakes within the kernel's timer slack.
func sleepUntilDue(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	syscall.Nanosleep(&ts, nil) // an early return (EINTR) is fine: the caller re-reads the clock
}

// hostStealSeconds is the CPU time the hypervisor gave to someone else
// while this machine wanted it (the steal column of /proc/stat).
func hostStealSeconds() (float64, bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, false
	}
	steal, err := strconv.ParseUint(f[8], 10, 64)
	if err != nil {
		return 0, false
	}
	return float64(steal) / clockTick, true
}
