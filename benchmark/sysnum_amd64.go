//go:build linux && amd64

package main

// The frozen syscall package predates sendmmsg; from the linux/amd64
// syscall table.
const (
	sysRecvmmsg = 299
	sysSendmmsg = 307
)
