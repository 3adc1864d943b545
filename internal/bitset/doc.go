// Package bitset provides a dense, fixed-capacity bitset used throughout the
// repository for descendant rows, failed-channel masks and destination sets.
//
// The zero value of Set is an empty set of capacity zero; use New to allocate
// capacity. All operations that combine two sets require equal word lengths.
package bitset
