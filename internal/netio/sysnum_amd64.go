//go:build linux && amd64

package netio

// The frozen syscall package predates sendmmsg, so the numbers live
// here. From the linux/amd64 syscall table.
const (
	sysRecvmmsg = 299
	sysSendmmsg = 307
	sysEventfd2 = 290
)
