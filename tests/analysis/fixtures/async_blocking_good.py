import asyncio


async def handler(loop, session, request):
    await asyncio.sleep(0.1)

    def run():
        # Blocking work belongs on an executor thread: the nested sync
        # closure is the sanctioned idiom (service/service.py).
        return session.simulate(request)

    return await loop.run_in_executor(None, run)


async def traced(loop, gate, engine, config):
    def run():
        # The gate may be held for a whole trace: wait for it on an
        # executor thread, never on the loop.
        with gate:
            return engine.run(config)

    return await loop.run_in_executor(None, run)


async def admitted(pool, lock):
    # An asyncio pool's awaited acquire and an unrelated lock are not
    # the gate.
    session = await pool.acquire(timeout=1.0)
    with lock:
        return session


async def coalesced(loop, cache, key, engine, config):
    def run():
        # A flight waits out another request's trace of the key: enter
        # it on an executor thread too.
        with cache.flight(key):
            return engine.run(config)

    return await loop.run_in_executor(None, run)
