//go:build !poison

package dil

// poison is off: see poison.go.
const poison = false
