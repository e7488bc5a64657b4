package harness

import "time"

// Clock is the driver's time source. Package main supplies the wall
// clock; tests supply a fake one, which makes the open-loop timing rules
// checkable without sleeping.
type Clock interface {
	Now() time.Time
	// After returns a channel that is closed once the clock reads t or
	// later (at once if it already does).
	After(t time.Time) <-chan struct{}
}
