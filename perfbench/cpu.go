package main

import (
	"syscall"
	"time"
	"unsafe"
)

// clockProcessCPUTime is Linux's CLOCK_PROCESS_CPUTIME_ID: the CPU time of
// every thread of the process, garbage collector included.
const clockProcessCPUTime = 2

// cpuNow is the process's CPU time so far. The declared metrics are CPU
// times, not wall times: on a shared virtual machine the wall time of the
// same work moves with what the host's other guests do (the kernel's
// paravirtual steal accounting keeps the time the hypervisor ran someone
// else out of a task's CPU time), while the CPU time moves with the work.
func cpuNow() time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): " + errno.Error())
	}
	return time.Duration(ts.Nano())
}
