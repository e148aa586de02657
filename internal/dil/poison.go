//go:build poison

package dil

// poison makes the list pool overwrite the arrays it takes back
// (listPool.put); the default build compiles that out.
const poison = true
