package main

// Keeping the vCPUs awake. On a virtual machine, a vCPU with nothing to run
// halts, and the hypervisor may give its physical CPU to another guest;
// waking it again waits for the host scheduler, and the guest sees that
// wait as steal. A closed loop wakes the daemon and the client at every
// request, so on a busy host the measured latency becomes mostly host
// scheduling. While a run measures, a child process keeps one spinning
// thread per CPU at SCHED_IDLE: the guest kernel preempts it the moment
// real work is runnable, so it only fills time the vCPUs would have spent
// halted.

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"syscall"
	"unsafe"
)

// maxSpinners caps the spinning threads on hosts with many CPUs.
const maxSpinners = 8

// schedIdle is Linux's SCHED_IDLE policy.
const schedIdle = 5

// spin is the child process's body: one SCHED_IDLE spinning thread per
// CPU, until the parent kills it.
func spin() {
	n := min(runtime.NumCPU(), maxSpinners)
	runtime.GOMAXPROCS(n + 1)
	for i := 0; i < n; i++ {
		go func() {
			runtime.LockOSThread()
			var param struct{ priority int32 }
			// pid 0 is the calling thread.
			if _, _, errno := syscall.Syscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
				fmt.Fprintln(os.Stderr, "perfbench: SCHED_IDLE:", errno)
				os.Exit(1)
			}
			for {
			}
		}()
	}
	select {}
}

// keepAwake starts the spinning child and returns a function that stops
// it and waits for it to exit.
func keepAwake() (stop func(), err error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-spin")
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting the keep-awake child: %w", err)
	}
	return func() {
		cmd.Process.Kill()
		cmd.Wait()
	}, nil
}
