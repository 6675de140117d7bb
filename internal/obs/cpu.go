package obs

import "syscall"

// CPUSeconds is the CPU time the process has used so far, user plus
// system, over all its threads. Flow-stage reports time fixed-work steps
// (such as a SAT proof) in it: unlike wall time it does not grow while a
// co-tenant of a shared host holds the CPUs.
func CPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}
