//go:build !linux && !darwin

package mmapfile

import "os"

// Open reads path into the heap — the portable fallback where mmap is
// unavailable. The File behaves identically apart from Mapped().
func Open(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return &File{data: data}, nil
}

// Anon allocates size zeroed bytes on the heap — the portable fallback
// for an anonymous mapping.
func Anon(size int) *File {
	if size <= 0 {
		return &File{}
	}
	return &File{data: make([]byte, size)}
}

// Close releases the heap copy.
func (f *File) Close() error {
	f.data = nil
	return nil
}
