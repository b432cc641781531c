//go:build linux && amd64

package rng

import (
	"runtime/debug"
	"syscall"
	"testing"
)

// TestSpawnLanesMaskedLanesTouchNothing proves the masking of the
// sixteen-lane kernel with the MMU: the records sit at the end of a mapped
// page with an unmapped one behind it, so that the slots of the lanes from n
// up — and the offsets those lanes carry — lie in the unmapped page. A
// gather or scatter that followed one of them faults; the fault is turned
// into a panic and fails the test. The control at the end shows the
// detector works: a live lane pointed into the same page does fault.
func TestSpawnLanesMaskedLanesTouchNothing(t *testing.T) {
	if !AVX512.Available() {
		t.Skip("CPUID reports no avx512: the sixteen-lane kernel cannot run on this host")
	}
	page := syscall.Getpagesize()
	mem, err := syscall.Mmap(-1, 0, 2*page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Skipf("mmap: %v", err)
	}
	defer syscall.Munmap(mem)
	if err := syscall.Mprotect(mem[page:], syscall.PROT_NONE); err != nil {
		t.Skipf("mprotect: %v", err)
	}
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))

	// faulted runs one kernel call over n records that end at the page
	// boundary; lanes from live up point one page further.
	faulted := func(n, live int, stride uintptr) (fault bool, base int) {
		defer func() { fault = recover() != nil }()
		base = page - n*int(stride)
		var off, idx [MaxLanes]uint32
		for j := range off {
			off[j] = uint32(j) * uint32(stride)
			if j >= live {
				off[j] += uint32(page)
			}
		}
		for j := 0; j < n; j++ {
			parent := refState(j)
			copy(mem[base+j*int(stride):], parent[:])
		}
		SpawnLanes((*State)(mem[base:]), stride, (*State)(mem[base:]), &off, &idx, n)
		return false, base
	}
	for _, stride := range []uintptr{StateSize, 28} {
		for n := 1; n < MaxLanes; n++ {
			fault, base := faulted(n, n, stride)
			if fault {
				t.Fatalf("stride %d, %d lanes: the kernel touched memory through a masked-off lane", stride, n)
			}
			for j := 0; j < n; j++ {
				parent := refState(j)
				if got, want := State(mem[base+j*int(stride):]), refSpawn(&parent, 0); got != want {
					t.Fatalf("stride %d, %d lanes: lane %d = %x, want %x", stride, n, j, got, want)
				}
			}
		}
	}
	if fault, _ := faulted(4, 3, 28); !fault {
		t.Error("control: a live lane read the unmapped page and nothing faulted — the test cannot see what it claims to")
	}
}

// refState is a distinct parent state for record j.
func refState(j int) State { return BRG{}.Init(int32(1000 + j)) }
