// Package refkernel is the benchmark's host-speed reference: a fixed,
// allocation-free loop with the instruction mix of an interpreter — a
// pseudo-random walk over a 256 KiB table, a data-dependent four-way
// switch and an unpredictable branch per step. Timed between workload
// repetitions, it measures how fast the host runs this kind of code right
// now, so the benchmark can divide host drift out of its figures. It
// imports nothing from the simulator: a change to the simulator must
// never move the reference.
package refkernel

const (
	tableWords = 1 << 16 // 256 KiB of uint32
	mask       = tableWords - 1
	// Steps is the number of loop iterations one Run performs.
	Steps = 1 << 18
)

// Kernel owns the table the walk reads.
type Kernel struct {
	table []uint32
}

// New fills the table with a fixed pseudo-random pattern.
func New() *Kernel {
	t := make([]uint32, tableWords)
	x := uint32(2463534242)
	for i := range t {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		t[i] = x
	}
	return &Kernel{table: t}
}

// Run performs Steps iterations and returns a value depending on all of
// them, so the loop cannot be optimised away. Every call does identical
// work and allocates nothing.
func (k *Kernel) Run() uint32 {
	t := k.table
	x := uint32(88172645)
	idx, acc := uint32(0), uint32(0)
	for i := 0; i < Steps; i++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		v := t[(idx^x)&mask]
		switch v & 3 {
		case 0:
			acc += v
		case 1:
			acc ^= v << 3
		case 2:
			acc -= v >> 2
		default:
			acc = acc*31 + v
		}
		if x&1 == 0 {
			idx = v
		} else {
			idx += acc
		}
	}
	return acc ^ idx
}
