package main

import (
	"fmt"
	"syscall"
	"unsafe"
)

// offHeap is a fixed-capacity append buffer kept outside the Go heap.
//
// The benchmark logs every delivery it observes. Kept on the Go heap, those
// logs would dominate heap_mb and, by growing the live heap, stretch the
// garbage collector's pacing: the system under test would collect less
// often than it does without the benchmark attached. Anonymous mappings are
// invisible to both. Pages are committed only when written, so a generous
// capacity costs address space, not memory.
type offHeap[T any] struct {
	mem  []byte
	buf  []T
	full bool // an append was refused because the buffer was full
}

func newOffHeap[T any](capacity int) (*offHeap[T], error) {
	var zero T
	size := capacity * int(unsafe.Sizeof(zero))
	if size <= 0 {
		return nil, fmt.Errorf("off-heap buffer: bad capacity %d", capacity)
	}
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE|syscall.MAP_NORESERVE)
	if err != nil {
		return nil, fmt.Errorf("off-heap buffer of %d bytes: %w", size, err)
	}
	return &offHeap[T]{mem: mem, buf: unsafe.Slice((*T)(unsafe.Pointer(&mem[0])), capacity)[:0]}, nil
}

// add appends v, or records that the buffer overflowed.
func (b *offHeap[T]) add(v T) {
	if len(b.buf) == cap(b.buf) {
		b.full = true
		return
	}
	b.buf = append(b.buf, v)
}

func (b *offHeap[T]) items() []T { return b.buf }

// free unmaps the buffer; items must not be used afterwards. A nil buffer
// is a no-op.
func (b *offHeap[T]) free() {
	if b != nil && b.mem != nil {
		_ = syscall.Munmap(b.mem) // failure leaves only an unused mapping behind
		b.mem, b.buf = nil, nil
	}
}
