package experiment

import (
	"errors"
	"fmt"

	"conscale/internal/scaling"
)

// The matrix configs (tournament, episodes, frontier, hypothesis) each
// own a Validate built from the checks below. Every Run* entry point
// calls it before any cell starts, so a misspelled name is an error
// rather than a panic in a worker goroutine after other cells have run.
// Zero fields mean "library default", so only negative sizes are bad.

// checkNames runs check on every name and joins the errors.
func checkNames(names []string, check func(name string) error) error {
	var errs []error
	for _, n := range names {
		errs = append(errs, check(n))
	}
	return errors.Join(errs...)
}

// knownController resolves a name through the controller registry.
func knownController(name string) error {
	_, err := scaling.Canonical(name)
	return err
}

// size is one numeric config field, named for the error message.
type size struct {
	name string
	v    float64
}

// checkSizes rejects negative sizes.
func checkSizes(sizes ...size) error {
	var errs []error
	for _, s := range sizes {
		if s.v < 0 {
			errs = append(errs, fmt.Errorf("experiment: %s must not be negative, got %v", s.name, s.v))
		}
	}
	return errors.Join(errs...)
}
