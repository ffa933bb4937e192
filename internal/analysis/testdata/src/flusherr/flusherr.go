// Package flusherr is the golden-file fixture for hhlint's flusherr pass.
// The package name contains "flusherr", which places every file here inside
// the pass's durability scope (mirroring internal/proofdb and persist.go).
package flusherr

type file struct{ dirty bool }

func (f *file) Close() error { return nil }
func (f *file) Sync() error  { return nil }
func (f *file) Flush() error { return nil }

// note returns no error: flush-family names without an error result are
// never flagged.
type buf struct{}

func (b *buf) Flush() {}

func Rename(oldpath, newpath string) error { return nil }

func bare(f *file) {
	f.Close() // want "discarded error from Close"
}

func deferred(f *file) {
	defer f.Sync() // want "deferred Sync discards its error"
}

func goroutine(f *file) {
	go f.Flush() // want "go Flush discards its error"
}

func blank(f *file) {
	_ = f.Sync() // want "error from Sync assigned to blank identifier in durable path"
}

func plainFunc() {
	Rename("a", "b") // want "discarded error from Rename"
}

// --- handled forms are clean ----------------------------------------------

func handled(f *file) error {
	if err := f.Flush(); err != nil {
		return err
	}
	return f.Close()
}

func capturedDefer(f *file) (err error) {
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	return f.Sync()
}

func noError(b *buf) {
	b.Flush() // no error result: not flagged
}
