//go:build !linux

package main

func kernelRelease() string { return "unknown" }

func fsType(string) string { return "unknown" }
