//go:build poison

package server

// poison makes putRespBuf overwrite every response buffer it pools;
// the default build compiles that out.
const poison = true
