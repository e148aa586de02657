//go:build !poison

package server

// poison is off: see poison.go.
const poison = false
