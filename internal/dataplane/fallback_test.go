//go:build netio_fallback

package dataplane_test

func init() { netioFallback = true }
