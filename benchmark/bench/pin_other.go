//go:build !linux

package bench

import "runtime"

// AllowedCPUs lists CPU numbers 0..NumCPU-1: without Linux's affinity
// calls the benchmark cannot ask, and PinProcess cannot pin.
func AllowedCPUs() ([]int, error) {
	cpus := make([]int, runtime.NumCPU())
	for i := range cpus {
		cpus[i] = i
	}
	return cpus, nil
}

// PinProcess does nothing outside Linux; numbers taken there spread wider.
func PinProcess(int) error { return nil }
