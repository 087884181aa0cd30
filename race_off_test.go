//go:build !race

package svrlab_test

const raceEnabled = false
