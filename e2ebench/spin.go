package main

import (
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// On a virtual machine, a vCPU with nothing to run halts and hands its
// physical CPU back to the host; waking it again (for a packet, a timer
// or another thread's wakeup) waits until the host schedules it. That
// wait shows as steal, and on a shared host it varies with the other
// guests' load by far more than the program's own latency. A spinner
// keeps every CPU busy at the lowest scheduling class instead, as the
// kernel's idle=poll would: it runs only when nothing else can and
// gives way on the next wakeup, so the vCPUs stay scheduled and the
// timings measure the guest.

// spinFlag re-executes this binary as the spinner.
const spinFlag = "-spin"

// schedIdle is Linux's SCHED_IDLE scheduling policy.
const schedIdle = 5

// startSpinner starts the spinner process: one busy thread per CPU at
// SCHED_IDLE. The caller stops it with stopSpinner.
func startSpinner() (*exec.Cmd, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, spinFlag)
	cmd.Stdout, cmd.Stderr = nil, os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	return cmd, nil
}

// stopSpinner kills the spinner and waits for it.
func stopSpinner(cmd *exec.Cmd) {
	_ = cmd.Process.Kill()
	_ = cmd.Wait()
}

// spin is the spinner's main: it busies every CPU at SCHED_IDLE until
// its parent is gone.
func spin() {
	n := runtime.NumCPU()
	runtime.GOMAXPROCS(n + 1)
	parent := os.Getppid()
	for i := 0; i < n; i++ {
		go func() {
			runtime.LockOSThread()
			param := struct{ priority int32 }{}
			// pid 0: the calling thread only.
			if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle,
				uintptr(unsafe.Pointer(&param))); e != 0 {
				os.Exit(1)
			}
			for {
			}
		}()
	}
	for os.Getppid() == parent {
		time.Sleep(100 * time.Millisecond)
	}
}
