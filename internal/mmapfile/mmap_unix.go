//go:build linux || darwin

package mmapfile

import (
	"fmt"
	"os"
	"syscall"
)

// Open maps path read-only. Empty files yield a File with no data (there
// is nothing to map). Errors from the mmap syscall fall back to a heap
// read rather than failing the boot.
func Open(path string) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size == 0 {
		return &File{}, nil
	}
	if size != int64(int(size)) {
		return nil, fmt.Errorf("mmapfile: %s: size %d overflows int", path, size)
	}
	data, err := syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		// Filesystems without mmap support (or exhausted map counts):
		// serve from the heap instead of failing the boot.
		heap, rerr := os.ReadFile(path)
		if rerr != nil {
			return nil, rerr
		}
		return &File{data: heap}, nil
	}
	return &File{data: data, mapped: true}, nil
}

// Anon maps size zeroed bytes of private, read-write memory backed by no
// file. An mmap error (an exhausted map count, say) falls back to a heap
// allocation, as Open does.
func Anon(size int) *File {
	if size <= 0 {
		return &File{}
	}
	data, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return &File{data: make([]byte, size)}
	}
	return &File{data: data, mapped: true}
}

// Close unmaps the file (no-op for heap fallbacks).
func (f *File) Close() error {
	if !f.mapped || f.data == nil {
		f.data = nil
		return nil
	}
	data := f.data
	f.data = nil
	f.mapped = false
	return syscall.Munmap(data)
}
