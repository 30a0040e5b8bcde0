package workload

import (
	"fmt"
	"sync"

	"tracecache/internal/program"
)

// progCache maps profile name -> func() (*program.Program, error), each a
// sync.OnceValues wrapper around the profile's Generate. Generation depends
// only on the profile (the Seed makes it deterministic), never on the
// simulation budget, so the name alone is a sufficient key.
var progCache sync.Map

// SharedProgram returns the generated program for the named profile,
// computed at most once per process and shared by every caller. Programs
// are immutable after generation (the simulator only reads Code and calls
// the pure Stats accessors), so sharing one instance across concurrently
// running simulations is safe. Callers must not mutate the returned
// program.
func SharedProgram(name string) (*program.Program, error) {
	if f, ok := progCache.Load(name); ok {
		return f.(func() (*program.Program, error))()
	}
	prof, ok := ByName(name)
	if !ok {
		return nil, fmt.Errorf("workload: unknown benchmark %q", name)
	}
	f, _ := progCache.LoadOrStore(name, sync.OnceValues(prof.Generate))
	return f.(func() (*program.Program, error))()
}
