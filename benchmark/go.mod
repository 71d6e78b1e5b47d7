module bqs/benchmark

go 1.24

require bqs v0.0.0

replace bqs => ../
