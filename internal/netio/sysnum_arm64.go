//go:build linux && arm64

package netio

// From the linux generic (asm-generic) 64-bit syscall table.
const (
	sysRecvmmsg = 243
	sysSendmmsg = 269
	sysEventfd2 = 19
)
