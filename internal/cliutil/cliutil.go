// Package cliutil holds small helpers shared by the dcluesim and dclueexp
// commands.
package cliutil

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"
)

// NowUTC is the single sanctioned wall-clock read for CLI-facing metadata
// (bench record timestamps, log headers). Model code must never call it —
// simulated time comes from sim.Sim.Now — and the simtime lint analyzer
// enforces that split by exempting only cmd/* and this package.
func NowUTC() time.Time {
	return time.Now().UTC()
}

// StartProfiles starts a pprof CPU profile (cpuPath) and/or arranges a heap
// profile (memPath); empty paths disable each. The returned stop function
// must be called exactly once before the process exits — including error
// exits, which os.Exit would otherwise let skip a deferred stop — to flush
// the CPU profile and capture the heap snapshot.
func StartProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpuF *os.File
	if cpuPath != "" {
		cpuF, err = os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuF); err != nil {
			cpuF.Close()
			return nil, err
		}
	}
	return func() error {
		if cpuF != nil {
			pprof.StopCPUProfile()
			if err := cpuF.Close(); err != nil {
				return err
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return err
			}
			defer f.Close()
			runtime.GC() // materialize the live heap before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				return err
			}
		}
		return nil
	}, nil
}

// Profiles is the -cpuprofile/-memprofile flag pair shared by dcluesim and
// dclueexp. Register the flags with AddProfiles, call Start after parsing,
// and leave the command through Exit, which flushes the profiles (os.Exit
// skips deferred calls).
type Profiles struct {
	cmd      string
	cpu, mem string
	stop     func() error
}

// AddProfiles registers the two profile flags on fs for the command cmd;
// process names what the CPU profile covers in its usage string.
func AddProfiles(fs *flag.FlagSet, cmd, process string) *Profiles {
	p := &Profiles{cmd: cmd}
	fs.StringVar(&p.cpu, "cpuprofile", "", "write a pprof CPU profile of the "+process+" process to this file")
	fs.StringVar(&p.mem, "memprofile", "", "write a pprof heap profile to this file at exit")
	return p
}

// Start begins the profiles the parsed flags ask for, or prints why it
// cannot and exits 1.
func (p *Profiles) Start() {
	stop, err := StartProfiles(p.cpu, p.mem)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", p.cmd, err)
		os.Exit(1)
	}
	p.stop = stop
}

// Exit flushes the profiles and exits with code. A flush failure is
// printed and turns a zero code into 1.
func (p *Profiles) Exit(code int) {
	if err := p.stop(); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", p.cmd, err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}
