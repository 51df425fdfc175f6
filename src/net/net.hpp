// net/net.hpp — umbrella header for the streaming ingest server stack.
//
// net/protocol.hpp is portable (frame layout + PODs, built on the WAL
// frame machinery); the epoll server, event loop, and client are Linux-
// only and compile away elsewhere (each is #ifdef __linux__ internally).
#pragma once

#include "net/protocol.hpp"

#ifdef __linux__
#include "net/client.hpp"
#include "net/event_loop.hpp"
#include "net/server.hpp"
#endif
