//go:build !race

package stack

const raceBuild = false
