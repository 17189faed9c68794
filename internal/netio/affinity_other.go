//go:build !linux || (!amd64 && !arm64)

package netio

import (
	"fmt"
	"runtime"
)

// PinThread is linux-only; elsewhere pinning silently costs nothing to
// skip, so callers log and continue.
func PinThread(i int) (int, error) {
	return 0, fmt.Errorf("netio: thread pinning unsupported on %s/%s", runtime.GOOS, runtime.GOARCH)
}
