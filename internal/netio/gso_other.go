//go:build !(linux && (amd64 || arm64))

package netio

import "errors"

// ProbeGSO always fails off linux: train messages still work through
// every rung's per-datagram unroll, there is just no kernel to coalesce
// them.
func ProbeGSO() error {
	return errors.New("netio: UDP GSO trains require linux")
}
