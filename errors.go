// Sentinel errors and the panic-capture type of the engine's failure
// model. Every error the Engine returns for a structural reason wraps one
// of these sentinels, so callers branch with errors.Is instead of string
// matching; see ARCHITECTURE.md, "Failure model".
package fastliveness

import (
	"errors"
	"fmt"
)

var (
	// ErrUnknownFunc is wrapped by every engine method handed a function
	// that was never registered with Add. Test with
	// errors.Is(err, ErrUnknownFunc).
	ErrUnknownFunc = errors.New("function is not registered with the engine")

	// ErrEngineClosed is wrapped by engine methods called after Close.
	ErrEngineClosed = errors.New("engine has been closed")

	// ErrQuarantined is wrapped by every error the engine reports for a
	// function whose build panicked: the first failing call, the fail-fast
	// calls during the retry backoff, and the fail-fast calls after the
	// retry budget is exhausted. The chain also carries the
	// *BuildPanicError with the captured stack (errors.As). Quarantine
	// ends at the function's next edit — the panic described a program
	// that no longer exists — or when a backoff-paced retry succeeds.
	ErrQuarantined = errors.New("function is quarantined after a panicking build")
)

// BuildPanicError is a backend panic converted into a per-function error
// at the engine's build boundary: the panic value and the goroutine stack
// captured at recovery. The engine quarantines the function (bounded
// backoff-paced retries, then fail-fast until its next edit) instead of
// letting the panic take down the process; precompute workers likewise
// survive it.
type BuildPanicError struct {
	// Func is the function whose build panicked.
	Func string
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack at recovery (runtime/debug.Stack).
	Stack []byte
}

func (e *BuildPanicError) Error() string {
	return fmt.Sprintf("analysis of %s panicked: %v", e.Func, e.Value)
}

// errUnknownFunc wraps ErrUnknownFunc with the function's name.
func errUnknownFunc(name string) error {
	return fmt.Errorf("fastliveness: %w: %s", ErrUnknownFunc, name)
}

// quarantineErr wraps a panic-derived build error so every caller-facing
// form satisfies both errors.Is(err, ErrQuarantined) and
// errors.As(err, **BuildPanicError).
func quarantineErr(name string, err error) error {
	return fmt.Errorf("fastliveness: %s: %w: %w", name, ErrQuarantined, err)
}
