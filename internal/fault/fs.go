package fault

import (
	"io/fs"
	"os"
)

// FS is the small filesystem surface the storage tier uses, pluggable
// so tests can interpose faults between the engine and the disk.
type FS interface {
	// ReadFile reads the named file in full.
	ReadFile(name string) ([]byte, error)
	// CreateTemp creates a new temporary file in dir (see
	// os.CreateTemp for pattern semantics).
	CreateTemp(dir, pattern string) (File, error)
	// Rename atomically moves oldpath to newpath.
	Rename(oldpath, newpath string) error
	// Remove deletes the named file.
	Remove(name string) error
	// MkdirAll creates the directory path with any missing parents.
	MkdirAll(path string, perm fs.FileMode) error
	// ReadDir lists a directory.
	ReadDir(name string) ([]fs.DirEntry, error)
	// WriteFile writes data to the named file, creating it if needed.
	WriteFile(name string, data []byte, perm fs.FileMode) error
}

// File is the writable temp-file handle returned by FS.CreateTemp.
type File interface {
	// Write appends to the file.
	Write(p []byte) (int, error)
	// Close flushes and closes the handle.
	Close() error
	// Name returns the file's path.
	Name() string
}

// osFS is the passthrough FS backed by the os package.
type osFS struct{}

func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }
func (osFS) CreateTemp(dir, pattern string) (File, error) {
	return os.CreateTemp(dir, pattern)
}
func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error             { return os.Remove(name) }
func (osFS) MkdirAll(path string, perm fs.FileMode) error {
	return os.MkdirAll(path, perm)
}
func (osFS) ReadDir(name string) ([]fs.DirEntry, error) { return os.ReadDir(name) }
func (osFS) WriteFile(name string, data []byte, perm fs.FileMode) error {
	return os.WriteFile(name, data, perm)
}

// OS returns the real-filesystem FS.
func OS() FS { return osFS{} }

// FSFor returns the FS a subsystem should use for the given site
// prefix: the plain os-backed FS when no injector is installed, or an
// injecting wrapper that visits "<prefix>.<op>" fault sites around each
// operation. Callers capture it once per operation batch (e.g. per
// store handle), so the disabled path costs one atomic load at
// construction and nothing per file op.
func FSFor(prefix string) FS {
	if current.Load() == nil {
		return osFS{}
	}
	return injectFS{prefix: prefix, base: osFS{}}
}

// injectFS wraps a base FS, consulting the installed injector before
// every operation. It re-reads the global injector on each call so a
// long-lived handle honors Enable/Disable flips mid-test.
type injectFS struct {
	prefix string
	base   FS
}

func (f injectFS) site(op string) string { return f.prefix + "." + op }

func (f injectFS) ReadFile(name string) ([]byte, error) {
	if err := Check(f.site("read")); err != nil {
		return nil, err
	}
	return f.base.ReadFile(name)
}

func (f injectFS) CreateTemp(dir, pattern string) (File, error) {
	if err := Check(f.site("create")); err != nil {
		return nil, err
	}
	file, err := f.base.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &injectFile{File: file, site: f.site("write")}, nil
}

func (f injectFS) Rename(oldpath, newpath string) error {
	if err := Check(f.site("rename")); err != nil {
		return err
	}
	return f.base.Rename(oldpath, newpath)
}

func (f injectFS) Remove(name string) error {
	if err := Check(f.site("remove")); err != nil {
		return err
	}
	return f.base.Remove(name)
}

func (f injectFS) MkdirAll(path string, perm fs.FileMode) error {
	if err := Check(f.site("mkdir")); err != nil {
		return err
	}
	return f.base.MkdirAll(path, perm)
}

func (f injectFS) ReadDir(name string) ([]fs.DirEntry, error) {
	if err := Check(f.site("readdir")); err != nil {
		return nil, err
	}
	return f.base.ReadDir(name)
}

func (f injectFS) WriteFile(name string, data []byte, perm fs.FileMode) error {
	if err := Check(f.site("writefile")); err != nil {
		return err
	}
	return f.base.WriteFile(name, data, perm)
}

// injectFile tears or fails writes according to the injector, modeling
// partial writes followed by a crashed save.
type injectFile struct {
	File
	site string
}

func (f *injectFile) Write(p []byte) (int, error) {
	in := current.Load()
	if in == nil {
		return f.File.Write(p)
	}
	frac, fire := in.partialWrite(f.site)
	if !fire {
		return f.File.Write(p)
	}
	if frac < 0 {
		return 0, Errorf(f.site)
	}
	keep := int(frac * float64(len(p)))
	if keep > 0 {
		if n, err := f.File.Write(p[:keep]); err != nil {
			return n, err
		}
	}
	return keep, Errorf(f.site)
}
