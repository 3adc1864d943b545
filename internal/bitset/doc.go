// Package bitset provides a dense, fixed-capacity bitset used throughout the
// repository for failed-channel masks, destination sets (as updown.TreeSet)
// and the table compiler's extended-descendant rows.
//
// The zero value of Set is an empty set of capacity zero; use New to allocate
// capacity. All operations that combine two sets require equal word lengths.
package bitset
