import time


async def handler(session, request):
    time.sleep(0.1)
    return session.simulate(request)


async def traced(gate, engine, config):
    with gate:
        return engine.run(config)


async def counted(service):
    service.kernel_gate.acquire()


async def coalesced(cache, key, engine, config):
    with cache.flight(key):
        return engine.run(config)
