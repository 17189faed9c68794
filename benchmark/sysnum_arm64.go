//go:build linux && arm64

package main

// From the linux/arm64 syscall table.
const (
	sysRecvmmsg = 243
	sysSendmmsg = 269
)
